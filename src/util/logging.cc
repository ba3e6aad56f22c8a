#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace amnesiac {
namespace detail {

namespace {

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:  return "debug";
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

/** Threshold from AMNESIAC_LOG, parsed once. Unknown values warn and
 * fall back to the default so a typo fails loudly, not silently. */
LogLevel
threshold()
{
    static const LogLevel level = [] {
        const char *env = std::getenv("AMNESIAC_LOG");
        if (env == nullptr || *env == '\0')
            return LogLevel::Inform;
        if (std::strcmp(env, "debug") == 0)
            return LogLevel::Debug;
        if (std::strcmp(env, "info") == 0 || std::strcmp(env, "inform") == 0)
            return LogLevel::Inform;
        if (std::strcmp(env, "warn") == 0)
            return LogLevel::Warn;
        std::fprintf(stderr,
                     "[warn] AMNESIAC_LOG=%s not recognized "
                     "(debug|info|warn); using info\n",
                     env);
        return LogLevel::Inform;
    }();
    return level;
}

/** Serializes emission across the experiment pipeline's workers. */
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

}  // namespace

void
emit(LogLevel level, const std::string &msg)
{
    if (level < threshold())
        return;
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
emitFatal(LogLevel level, const std::string &msg, const char *file, int line)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::fprintf(stderr, "[%s] %s (%s:%d)\n", levelName(level),
                     msg.c_str(), file, line);
    }
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

}  // namespace detail

void
inform(const std::string &msg)
{
    detail::emit(LogLevel::Inform, msg);
}

void
warn(const std::string &msg)
{
    detail::emit(LogLevel::Warn, msg);
}

void
debug(const std::string &msg)
{
    detail::emit(LogLevel::Debug, msg);
}

}  // namespace amnesiac
