/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger or core dump can capture the state.
 * fatal()  — the simulation cannot continue due to a user-level error
 *            (bad configuration, malformed program); exits with code 1.
 * warn()   — something is questionable but the run can continue.
 * inform() — plain status output.
 * debug()  — developer diagnostics; compiled in but silent unless the
 *            AMNESIAC_LOG environment variable names a level at or
 *            below Debug (e.g. AMNESIAC_LOG=debug).
 *
 * All emission is serialized by a mutex, so messages from the
 * experiment pipeline's worker threads never interleave mid-line.
 */

#ifndef AMNESIAC_UTIL_LOGGING_H
#define AMNESIAC_UTIL_LOGGING_H

#include <sstream>
#include <string>

namespace amnesiac {

/** Severity classes understood by detail::emit(), least severe first. */
enum class LogLevel { Debug, Inform, Warn, Fatal, Panic };

namespace detail {

/** Format and print one message; terminates for Fatal/Panic. */
[[noreturn]] void emitFatal(LogLevel level, const std::string &msg,
                            const char *file, int line);
void emit(LogLevel level, const std::string &msg);

}  // namespace detail

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Print a warning to stderr. */
void warn(const std::string &msg);

/** Print a developer-diagnostic message to stderr; dropped unless
 * AMNESIAC_LOG enables the Debug level. */
void debug(const std::string &msg);


/** Abort with an internal-bug message. */
#define AMNESIAC_PANIC(msg)                                                 \
    ::amnesiac::detail::emitFatal(::amnesiac::LogLevel::Panic,              \
                                  ::amnesiac::detail::str(msg),             \
                                  __FILE__, __LINE__)

/** Exit(1) with a user-error message. */
#define AMNESIAC_FATAL(msg)                                                 \
    ::amnesiac::detail::emitFatal(::amnesiac::LogLevel::Fatal,              \
                                  ::amnesiac::detail::str(msg),             \
                                  __FILE__, __LINE__)

/** panic() unless the invariant holds. */
#define AMNESIAC_ASSERT(cond, msg)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            AMNESIAC_PANIC(std::string("assertion failed: ") + #cond +      \
                           " — " + ::amnesiac::detail::str(msg));           \
        }                                                                   \
    } while (0)

namespace detail {

/** Stringify anything streamable (used by the macros above). */
template <typename T>
std::string
str(const T &value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

inline std::string str(const std::string &value) { return value; }
inline std::string str(const char *value) { return value; }

}  // namespace detail
}  // namespace amnesiac

#endif  // AMNESIAC_UTIL_LOGGING_H
