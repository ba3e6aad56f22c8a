/**
 * @file
 * Measuring program of the end-to-end pipeline benchmark (see
 * README.md next to this file). run.py builds it and calls it; each
 * call prints one JSON object on stdout:
 *
 *   perfbench populate --workload W --seed N --cache-dir D
 *       Set-up of a warm workload: build its items and run the cold
 *       pipeline with the artifact cache at D, which publishes every
 *       compile. Reports the set-up time and the digest of every
 *       (item x policy) cell, the reference the timed run must match,
 *       and a host probe's seconds before and after it.
 *
 *   perfbench measure --workload W --seed N --passes P [--cache-dir D]
 *                     [--setup-reps K] [--trace] [--items a,b]
 *       Set-up (item construction, K times), then the timed phase: P
 *       passes over the items, each item run once per pass through
 *       ExperimentRunner on the calling thread. Reports the seconds of
 *       every (pass, item) run and of every set-up repetition, the host
 *       probes timed around each of them, the peak RSS of the timed
 *       phase, and every cell's checks and digests. With
 *       --trace it runs one untraced and one traced pass instead and
 *       adds the per-layer totals; --items replaces the item list
 *       (used by the benchmark's own tests to stay small).
 *
 * The checks on the cells are applied by run.py, not here: this
 * program only measures and reports.
 */

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#error "perfbench needs an optimised NDEBUG build (Release, RelWithDebInfo)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses a sanitizer build"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "perfbench refuses a sanitizer build"
#endif
#endif

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory_resource>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/domains.h"
#include "analysis/prune.h"
#include "isa/serialize.h"
#include "obs/manifest.h"
#include "obs/span.h"
#include "profile/profiler.h"
#include "report/experiment.h"
#include "sim/machine.h"
#include "workloads/registry.h"

namespace {

using namespace amnesiac;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ host probe

/**
 * A fixed piece of host work, timed between the items of a timed pass.
 *
 * The shared host's speed drifts by tens of percent from one second to
 * the next and between runs minutes apart (neighbours on the same
 * cores, caches and memory bus), and the pipeline's wall time drifts
 * with it. The probe does two kinds of work the pipeline is made of, a
 * hash map of small nodes and a switch-dispatched interpreter loop, on
 * fixed inputs of its own, so its time follows the host's speed and
 * nothing else. run.py divides each item's time by the probes around
 * it. The probe calls no library code, so a change to the library
 * never moves it. All its memory is one arena mapped and touched once,
 * before the peak-RSS mark is reset; measure() subtracts the arena
 * from the peak.
 */
class HostProbe
{
  public:
    HostProbe()
    {
        void *mem = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED) {
            std::fprintf(stderr, "perfbench: cannot map the probe arena\n");
            std::exit(1);
        }
        _arena = static_cast<std::byte *>(mem);
        std::memset(_arena, 0, kArenaBytes);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint8_t &op : _code)
            op = static_cast<std::uint8_t>(next(x) % 8);
    }
    ~HostProbe() { munmap(_arena, kArenaBytes); }
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Bytes the probe keeps resident for the whole run. */
    static constexpr std::size_t kArenaBytes = std::size_t{16} << 20;

    /** Seconds of one probe. */
    double run()
    {
        const Clock::time_point start = Clock::now();
        hash();
        interpret();
        return secondsSince(start);
    }

  private:
    static constexpr std::size_t kRegs = std::size_t{1} << 15;
    static constexpr std::size_t kCode = 4096;

    static std::uint64_t next(std::uint64_t &x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    /** 2^19 updates of a map over 2^18 possible keys. */
    void hash()
    {
        std::pmr::monotonic_buffer_resource pool(
            _arena + kRegs * sizeof(std::uint64_t),
            kArenaBytes - kRegs * sizeof(std::uint64_t),
            std::pmr::null_memory_resource());
        std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
        map.reserve(std::size_t{1} << 18);
        std::uint64_t x = 7;
        for (std::size_t i = 0; i < (std::size_t{1} << 19); ++i)
            map[next(x) & 0x3ffff] += i;
        _sink = _sink + map.size();
    }

    /** 2^23 steps of a random program of eight register and memory
     * operations, with data-dependent branches. */
    void interpret()
    {
        auto *mem = reinterpret_cast<std::uint64_t *>(_arena);
        std::uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        std::size_t pc = 0;
        for (std::size_t i = 0; i < (std::size_t{1} << 23); ++i) {
            const std::uint8_t op = _code[pc];
            pc = (pc + 1) & (kCode - 1);
            switch (op) {
            case 0: r[1] += r[2]; break;
            case 1: r[2] ^= r[3] << 1; break;
            case 2: mem[r[1] & (kRegs - 1)] = r[4]; break;
            case 3: r[4] += mem[r[2] & (kRegs - 1)]; break;
            case 4:
                if (r[4] & 1)
                    pc = (pc + 7) & (kCode - 1);
                break;
            case 5: r[5] = r[5] * 31 + r[1]; break;
            case 6: r[3] += r[5] >> 3; break;
            default: r[6] ^= r[4]; break;
            }
        }
        _sink = _sink + r[1] + r[5] + r[6];
    }

    std::byte *_arena = nullptr;
    std::uint8_t _code[kCode];
    /** Keeps the compiler from dropping the probe's work. */
    volatile std::uint64_t _sink = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench populate --workload W --seed N "
                 "--cache-dir D\n"
                 "       perfbench measure --workload W --seed N --passes P "
                 "[--cache-dir D] [--setup-reps K] [--trace] [--items a,b]\n",
                 why.c_str());
    std::exit(2);
}

/** How a workload uses the artifact cache. */
enum class CacheUse
{
    None,     ///< no cache: every compile is cold
    Warm,     ///< every compile is served from a cache filled in set-up
    Publish,  ///< the cache starts empty, so every compile publishes
};

struct BenchWorkload
{
    const char *name;
    std::vector<std::string> items;
    std::vector<Policy> policies;
    CacheUse cache;
};

const std::vector<Policy> kPaperPolicies(std::begin(kAllPolicies),
                                         std::end(kAllPolicies));

/** The three workloads; README.md says why each is there. */
const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> defs = {
        {"cold_repro", {"sx", "mcf", "is"}, kPaperPolicies, CacheUse::None},
        {"warm_sweep", {"mcf", "rt", "bfs", "sr"},
         kPaperPolicies, CacheUse::Warm},
        {"cold_compiler_only",
         {"cg", "ca", "rt", "bfs", "sr"},
         {Policy::Compiler}, CacheUse::Publish},
    };
    return defs;
}

/** cold_repro's items: the profile-layer probes replay these. */
const std::vector<std::string> &
probeItems()
{
    return benchWorkloads().front().items;
}

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    unsigned passes = 2;
    unsigned setupReps = 5;
    std::string cacheDir;
    bool trace = false;
    std::vector<std::string> items;
};

std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t min)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0 ||
        v < min)
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options opts;
    opts.mode = argv[1];
    if (opts.mode != "populate" && opts.mode != "measure")
        usage("unknown mode '" + opts.mode + "'");
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            opts.workload = value();
        } else if (flag == "--seed") {
            opts.seed = parseCount(flag, value(), 0);
        } else if (flag == "--passes") {
            opts.passes = static_cast<unsigned>(
                std::min<std::uint64_t>(parseCount(flag, value(), 1), 64));
        } else if (flag == "--setup-reps") {
            opts.setupReps = static_cast<unsigned>(
                std::min<std::uint64_t>(parseCount(flag, value(), 1), 64));
        } else if (flag == "--cache-dir") {
            opts.cacheDir = value();
        } else if (flag == "--trace") {
            opts.trace = true;
        } else if (flag == "--items") {
            std::stringstream list(value());
            for (std::string item; std::getline(list, item, ',');)
                if (!item.empty())
                    opts.items.push_back(item);
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    return opts;
}

BenchWorkload
resolveWorkload(const Options &opts)
{
    for (const BenchWorkload &def : benchWorkloads()) {
        if (opts.workload != def.name)
            continue;
        BenchWorkload chosen = def;
        if (!opts.items.empty())
            chosen.items = opts.items;
        for (const std::string &item : chosen.items)
            if (!isRegisteredWorkload(item))
                usage("unknown item '" + item + "'");
        if (chosen.cache != CacheUse::None && opts.cacheDir.empty())
            usage(std::string(def.name) + " needs --cache-dir");
        return chosen;
    }
    usage("unknown workload '" + opts.workload + "'");
}

ExperimentConfig
experimentConfig(const BenchWorkload &def, const Options &opts)
{
    ExperimentConfig config;
    config.jobs = 1;
    config.compiler.profileJobs = 1;
    config.seed = opts.seed;
    if (def.cache == CacheUse::None)
        config.noCache = true;
    else
        config.cacheDir = opts.cacheDir;
    return config;
}

std::vector<Workload>
buildItems(const BenchWorkload &def, std::uint64_t seed)
{
    std::vector<Workload> items;
    items.reserve(def.items.size());
    for (const std::string &name : def.items)
        items.push_back(makeWorkload(name, seed));
    return items;
}

/** Remove every entry of a cache directory (the directory stays). */
void
emptyDir(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        std::filesystem::remove_all(entry.path());
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    if (dir.empty() || !std::filesystem::exists(dir))
        return 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

/** One line of /proc/self/status, as a number ("VmHWM", "Threads"). */
std::uint64_t
procStatus(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, len, key) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    std::fprintf(stderr, "perfbench: no %s in /proc/self/status\n", key);
    std::exit(1);
}

/** Reset the kernel's peak-RSS mark to the current RSS, so VmHWM read
 * later covers only what ran since. */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear) {
        std::fprintf(stderr,
                     "perfbench: cannot reset peak RSS via "
                     "/proc/self/clear_refs\n");
        std::exit(1);
    }
}

// ---------------------------------------------------------------- digests

std::uint64_t
programDigest(const Program &program)
{
    std::vector<std::uint8_t> bytes = serializeProgram(program);
    return fnv1aDigest(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

/** Digest of everything one (item x policy) cell reports: the binary
 * it ran, every simulated statistic and the three gains. */
std::uint64_t
cellDigest(const BenchmarkResult &result, const PolicyOutcome &outcome)
{
    const Program &binary = needsOracleSet(outcome.policy)
                                ? result.oracleCompiled.program
                                : result.compiled.program;
    const SimStats &s = outcome.stats;
    std::string text = result.name + "/" +
                       std::string(policyName(outcome.policy));
    char buf[64];
    auto u64 = [&](std::uint64_t v) {
        std::snprintf(buf, sizeof(buf), ";%" PRIu64, v);
        text += buf;
    };
    auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), ";%.17g", v);
        text += buf;
    };
    u64(programDigest(binary));
    for (std::uint64_t v :
         {s.dynInstrs, s.dynLoads, s.dynStores, s.cycles,
          s.l2WritebackInstalls, s.rcmpSeen, s.recomputations,
          s.fallbackLoads, s.recomputedInstrs, s.histReads, s.histWrites,
          s.histOverflows, s.recomputeChecked, s.recomputeMismatches,
          s.sfileAborts, s.histMissFallbacks})
        u64(v);
    for (std::uint64_t v : s.perCategory)
        u64(v);
    for (std::uint64_t v : s.swappedByLevel)
        u64(v);
    for (std::uint64_t v : s.fallbackByLevel)
        u64(v);
    for (double v : {s.energy.loadNj, s.energy.storeNj, s.energy.nonMemNj,
                     s.energy.histReadNj, outcome.edpGainPct,
                     outcome.energyGainPct, outcome.perfGainPct})
        num(v);
    return fnv1aDigest(text);
}

// ------------------------------------------------------------------- JSON

/** Minimal JSON object writer (keys are plain identifiers). */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }
    JsonObject &u64(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObject &str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        _body += (_body.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
        return *this;
    }
    std::string render() const { return "{" + _body + "}"; }

  private:
    std::string _body;
};

/** A JSON list of seconds. */
std::string
listJson(const std::vector<double> &values)
{
    std::string text;
    for (double v : values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.9f", text.empty() ? "" : ", ",
                      v);
        text += buf;
    }
    return "[" + text + "]";
}

/** One cell as seen in one pass (the checks run.py applies). */
struct CellRecord
{
    std::string item;
    std::string policy;
    std::uint64_t digest = 0;
    std::uint64_t dynInstrs = 0;
    std::uint64_t recomputations = 0;
    std::uint64_t recomputeChecked = 0;
    std::uint64_t recomputeMismatches = 0;
};

void
recordCells(const BenchmarkResult &result, std::vector<CellRecord> &out)
{
    for (const PolicyOutcome &outcome : result.policies)
        out.push_back({result.name, std::string(policyName(outcome.policy)),
                       cellDigest(result, outcome), outcome.stats.dynInstrs,
                       outcome.stats.recomputations,
                       outcome.stats.recomputeChecked,
                       outcome.stats.recomputeMismatches});
}

std::string
renderCells(const std::vector<std::vector<CellRecord>> &passes)
{
    std::string out = "[";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        out += p ? ", [" : "[";
        for (std::size_t c = 0; c < passes[p].size(); ++c) {
            const CellRecord &r = passes[p][c];
            char digest[32];
            std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
            out += (c ? ", " : "") +
                   JsonObject()
                       .str("item", r.item)
                       .str("policy", r.policy)
                       .str("digest", digest)
                       .u64("dyn_instrs", r.dynInstrs)
                       .u64("recomputations", r.recomputations)
                       .u64("recompute_checked", r.recomputeChecked)
                       .u64("recompute_mismatches", r.recomputeMismatches)
                       .render();
        }
        out += "]";
    }
    return out + "]";
}

std::string
provenance(const ExperimentConfig &config)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.compare(0, 10, "model name") == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    return JsonObject()
        .u64("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
        .str("cpu_model", cpu)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER)
        .u64("jobs", config.jobs)
        .u64("profile_jobs", config.compiler.profileJobs)
        .render();
}

// ------------------------------------------------------------ layer totals

/** Raw per-layer totals of a traced run; run.py derives the ratios. */
using Totals = std::map<std::string, double>;

/** The span name up to its first space ("pass:profile sx" -> base). */
std::string_view
spanBase(const char *name)
{
    std::string_view full(name);
    return full.substr(0, full.find(' '));
}

std::string_view
spanDetail(const char *name)
{
    std::string_view full(name);
    std::size_t space = full.find(' ');
    return space == std::string_view::npos ? std::string_view()
                                           : full.substr(space + 1);
}

std::uint64_t
spanCounter(const SpanRecord &span, const char *key)
{
    for (std::uint8_t i = 0; i < span.counterCount; ++i)
        if (std::strcmp(span.counters[i].key, key) == 0)
            return span.counters[i].value;
    return 0;
}

/** Span base name -> the layer metric its seconds add to. Spans of the
 * pipeline first, then the benchmark's own (bench:*, probe:*). */
const std::map<std::string_view, const char *> kSpanSeconds = {
    {"pass:prune", "analysis.prune_s"},
    {"pass:profile", "profile.pass_s"},
    {"prepare", "report.prepare_s"},
    {"simulate", "report.simulate_s"},
    {"cache:probe", "report.cache_probe_s"},
    {"cache:publish", "report.cache_publish_s"},
    {"bench:classic", "sim.classic_s"},
    {"bench:amnesic", "core.amnesic_s"},
    {"probe:bare", "profile.bare_s"},
    {"probe:observer", "profile.observer_s"},
    {"probe:tracker", "profile.tracker_s"},
    {"probe:full", "profile.full_s"},
};

/** Fold every recorded span into the layer totals. A profile replay
 * runs the whole program, so it profiles the item's classic
 * instruction count. */
void
addSpanTotals(const std::vector<SpanProfiler::ThreadSpans> &threads,
              const std::map<std::string, std::uint64_t, std::less<>> &
                  classic_instrs,
              Totals &t)
{
    t["obs.threads_traced"] = static_cast<double>(threads.size());
    for (const SpanProfiler::ThreadSpans &thread : threads)
        for (const SpanRecord &span : thread.spans) {
            const std::string_view base = spanBase(span.name);
            if (base.substr(0, 5) == "lint:")
                t["analysis.lint_s"] += span.seconds();
            else if (auto it = kSpanSeconds.find(base);
                     it != kSpanSeconds.end())
                t[it->second] += span.seconds();

            if (base == "pass:profile") {
                t["profile.replays"] += 1;
                auto it = classic_instrs.find(spanDetail(span.name));
                if (it != classic_instrs.end())
                    t["profile.instrs"] += static_cast<double>(it->second);
            } else if (base == "bench:classic" || base == "bench:amnesic") {
                t[base == "bench:classic" ? "sim.classic_instrs"
                                          : "core.amnesic_instrs"] +=
                    static_cast<double>(spanCounter(span, "instrs"));
            }
        }
}

/** Compile-pass laps of one result (both slice sets). */
void
addCompileTotals(const BenchmarkResult &result, Totals &t)
{
    for (const CompileResult *compiled :
         {&result.compiled, &result.oracleCompiled}) {
        for (const PassTime &lap : compiled->passTimes) {
            t["core.compile_s"] += lap.sec;
            if (lap.name == "dryrun" || lap.name == "select" ||
                lap.name == "gate")
                t["core." + lap.name + "_s"] += lap.sec;
        }
        t["core.selected_slices"] +=
            static_cast<double>(compiled->stats.selected);
        if (!compiled->program.code.empty())
            t["isa.amnb_bytes"] += static_cast<double>(
                serializeProgram(compiled->program).size());
    }
    t["analysis.pruned_candidates"] +=
        static_cast<double>(result.manifest.prunedCandidates);
    t["report.cache_hits"] += result.manifest.cacheHits;
    t["report.cache_misses"] += result.manifest.cacheMisses;
    for (const PolicyOutcome &outcome : result.policies)
        t["core.recomputations"] +=
            static_cast<double>(outcome.stats.recomputations);
}

/** Observer that does nothing: isolates the dispatch cost. */
class NullObserver : public MachineObserver
{
};

/** Observer that feeds only the dependence tracker, exactly as the
 * full profiler does, without any per-site analysis. */
class TrackerObserver : public MachineObserver
{
  public:
    explicit TrackerObserver(const ProfilerConfig &config) : _config(config)
    {
    }

    void onExec(const ExecutionEngine &m, std::uint32_t pc,
                const Instruction &instr) override
    {
        Profiler::mirrorExec(_tracker, _config, m, pc, instr);
    }
    void onLoad(const ExecutionEngine &m, std::uint32_t pc,
                std::uint64_t addr, std::uint64_t value,
                MemLevel serviced) override
    {
        (void)serviced;
        _tracker.onLoad(pc, m.program().code[pc], addr, value);
    }
    void onStore(const ExecutionEngine &m, std::uint32_t pc,
                 std::uint64_t addr, std::uint64_t value,
                 MemLevel serviced) override
    {
        (void)value;
        (void)serviced;
        _tracker.onStore(m.program().code[pc], addr);
    }

  private:
    const ProfilerConfig &_config;
    DepTracker _tracker;
};

/** The profiler configuration the normal-set compile's pass 1 uses:
 * the static pruner's masks over the input program. */
ProfilerConfig
compileProfilerConfig(const Program &program, const ExperimentConfig &config)
{
    EnergyModel energy(config.energy);
    StaticPruneOptions prune;
    prune.minSiteCount = config.compiler.minSiteCount;
    prune.profitabilityMargin = config.compiler.profitabilityMargin;
    prune.budgetMargin = config.compiler.builder.budgetMargin;
    prune.energy = &energy;
    DataflowFacts facts(program);
    StaticPruneResult pruned = computeStaticPrune(program, facts, prune);
    ProfilerConfig prof;
    prof.skipSiteAnalysis = std::move(pruned.skipSiteAnalysis);
    prof.opaqueProduction = std::move(pruned.opaqueProduction);
    return prof;
}

/**
 * The profile pass split layer by layer over cold_repro's items: bare
 * interpreter, a no-op observer, the dependence tracker alone, then the
 * full profiler. Each step adds one layer to the previous one.
 */
void
runProfileProbes(const ExperimentConfig &config,
                 const std::vector<std::string> &names, std::uint64_t seed,
                 Totals &t)
{
    EnergyModel energy(config.energy);
    for (const std::string &name : names) {
        const Workload item = makeWorkload(name, seed);
        const ProfilerConfig prof = compileProfilerConfig(item.program,
                                                          config);
        {
            ScopedSpan span("probe:bare", name);
            Machine machine(item.program, energy, config.hierarchy);
            machine.run(config.runLimit);
        }
        {
            ScopedSpan span("probe:observer", name);
            NullObserver observer;
            Machine machine(item.program, energy, config.hierarchy);
            machine.setObserver(&observer);
            machine.run(config.runLimit);
        }
        {
            ScopedSpan span("probe:tracker", name);
            TrackerObserver observer(prof);
            Machine machine(item.program, energy, config.hierarchy);
            machine.setObserver(&observer);
            machine.run(config.runLimit);
        }
        ScopedSpan span("probe:full", name);
        Profiler profiler(prof);
        Machine machine(item.program, energy, config.hierarchy);
        machine.setObserver(&profiler);
        machine.run(config.runLimit);
        span.stop();
        const DepTracker &tracker = profiler.tracker();
        const double nodes = static_cast<double>(tracker.arenaSize());
        t["profile.productions"] += static_cast<double>(tracker.productions());
        t["profile.arena_nodes_peak"] =
            std::max(t["profile.arena_nodes_peak"], nodes);
        t["profile.arena_bytes_peak"] = std::max(
            t["profile.arena_bytes_peak"],
            nodes * static_cast<double>(sizeof(ProducerNode) +
                                        sizeof(std::uint32_t)));
        t["profile.arena_live_end"] = std::max(
            t["profile.arena_live_end"],
            nodes - static_cast<double>(tracker.freeCount()));
    }
}

/**
 * The benchmark's own calls into the simulator layers over the traced
 * pass's binaries: a classic Machine per item (sim, mem) and a bare
 * amnesic simulation per cell (core, without the report layer's site
 * attribution).
 */
void
runSimulatorLayers(const ExperimentRunner &runner,
                   const std::vector<Workload> &items,
                   const std::vector<BenchmarkResult> &results, Totals &t)
{
    const ExperimentConfig &config = runner.config();
    for (const Workload &item : items) {
        ScopedSpan span("bench:classic", item.name);
        Machine machine(item.program, runner.energyModel(), config.hierarchy,
                        config.timing);
        machine.run(config.runLimit);
        span.counter("instrs", machine.stats().dynInstrs);
        span.stop();
        const auto &reads = machine.hierarchy().readsBy();
        t["mem.loads_l1"] += static_cast<double>(
            reads[static_cast<std::size_t>(MemLevel::L1)]);
        t["mem.loads_dram"] += static_cast<double>(
            reads[static_cast<std::size_t>(MemLevel::Memory)]);
    }
    for (const BenchmarkResult &result : results)
        for (const PolicyOutcome &outcome : result.policies) {
            const Program &binary = needsOracleSet(outcome.policy)
                                        ? result.oracleCompiled.program
                                        : result.compiled.program;
            ScopedSpan span("bench:amnesic", result.name,
                            policyName(outcome.policy));
            SimStats stats = runner.runAmnesic(binary, outcome.policy);
            span.counter("instrs", stats.dynInstrs);
        }
}

std::string
renderTotals(const Totals &t)
{
    JsonObject out;
    for (const auto &[key, value] : t)
        out.num(key, value);
    return out.render();
}

// ------------------------------------------------------------------ modes

int
populate(const Options &opts)
{
    const BenchWorkload def = resolveWorkload(opts);
    if (def.cache != CacheUse::Warm)
        usage("populate applies to a warm workload only");
    const ExperimentConfig config = experimentConfig(def, opts);
    HostProbe probe;
    const double probe_before = probe.run();
    const Clock::time_point start = Clock::now();
    emptyDir(opts.cacheDir);
    const std::vector<Workload> items = buildItems(def, opts.seed);
    ExperimentRunner runner(config);
    std::vector<std::vector<CellRecord>> cells(1);
    for (const Workload &item : items)
        recordCells(runner.run(item, def.policies), cells[0]);
    const double setup = secondsSince(start);
    const double probe_after = probe.run();
    std::printf("%s\n", JsonObject()
                            .num("setup_s", setup)
                            .raw("probe_secs", listJson({probe_before,
                                                         probe_after}))
                            .raw("cells", renderCells(cells))
                            .raw("provenance", provenance(config))
                            .render()
                            .c_str());
    return 0;
}

int
measure(const Options &opts)
{
    const BenchWorkload def = resolveWorkload(opts);
    const ExperimentConfig config = experimentConfig(def, opts);
    ExperimentRunner runner(config);
    HostProbe probe;

    // Set-up: item construction, repeated, each bracketed by probes.
    std::vector<double> builds;
    std::vector<double> build_probes{probe.run()};
    std::vector<Workload> items;
    for (unsigned rep = 0; rep < opts.setupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        items = buildItems(def, opts.seed);
        builds.push_back(secondsSince(start));
        build_probes.push_back(probe.run());
    }
    std::vector<double> sorted_builds = builds;
    std::sort(sorted_builds.begin(), sorted_builds.end());
    const double build_s = sorted_builds[sorted_builds.size() / 2];

    // One pass: every item once, in order. Returns per-item seconds.
    // With a probe, every item is bracketed by host probes, whose
    // seconds are appended to *probes (one before the first item).
    std::uint64_t max_threads = 1;
    std::vector<BenchmarkResult> last_results;
    auto run_pass = [&](std::vector<CellRecord> &cells,
                        std::vector<double> *probes) {
        if (def.cache == CacheUse::Publish)
            emptyDir(opts.cacheDir);
        std::vector<double> secs;
        last_results.clear();
        if (probes)
            probes->push_back(probe.run());
        for (const Workload &item : items) {
            const Clock::time_point start = Clock::now();
            BenchmarkResult result = runner.run(item, def.policies);
            secs.push_back(secondsSince(start));
            if (probes)
                probes->push_back(probe.run());
            max_threads = std::max(max_threads, procStatus("Threads"));
            recordCells(result, cells);
            last_results.push_back(std::move(result));
        }
        return secs;
    };

    JsonObject out;
    out.num("build_s", build_s)
        .raw("build_secs", listJson(builds))
        .raw("build_probe_secs", listJson(build_probes));
    std::vector<std::vector<CellRecord>> cells;
    if (!opts.trace) {
        resetPeakRss();
        std::string pass_secs;
        std::string probe_secs;
        for (unsigned pass = 0; pass < opts.passes; ++pass) {
            cells.emplace_back();
            std::vector<double> probes;
            pass_secs += (pass ? ", " : "") +
                         listJson(run_pass(cells.back(), &probes));
            probe_secs += (pass ? ", " : "") + listJson(probes);
        }
        out.raw("pass_secs", "[" + pass_secs + "]")
            .raw("probe_secs", "[" + probe_secs + "]")
            .num("peak_rss_mb",
                 (static_cast<double>(procStatus("VmHWM")) -
                  static_cast<double>(HostProbe::kArenaBytes >> 10)) /
                     1024.0);
    } else {
        // One untraced pass, then the same pass traced: their
        // difference is the tracing overhead.
        cells.emplace_back();
        double untraced = 0.0;
        for (double sec : run_pass(cells.back(), nullptr))
            untraced += sec;

        Totals totals;
        std::map<std::string, std::uint64_t, std::less<>> classic_instrs;
        for (const BenchmarkResult &result : last_results)
            classic_instrs[result.name] = result.classic.dynInstrs;

        SpanProfiler::instance().enable();
        rusage before{};
        getrusage(RUSAGE_SELF, &before);
        cells.emplace_back();
        double traced = 0.0;
        for (double sec : run_pass(cells.back(), nullptr))
            traced += sec;
        rusage after{};
        getrusage(RUSAGE_SELF, &after);
        totals["obs.trace_overhead_s"] = traced - untraced;
        auto seconds = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) +
                   1e-6 * static_cast<double>(tv.tv_usec);
        };
        totals["proc.sys_s"] = seconds(after.ru_stime) -
                               seconds(before.ru_stime);
        totals["proc.minor_faults"] =
            static_cast<double>(after.ru_minflt - before.ru_minflt);
        totals["report.cache_entry_bytes"] =
            static_cast<double>(dirBytes(opts.cacheDir));
        for (const BenchmarkResult &result : last_results)
            addCompileTotals(result, totals);

        runSimulatorLayers(runner, items, last_results, totals);
        runProfileProbes(config,
                         opts.items.empty() ? probeItems() : opts.items,
                         opts.seed, totals);
        SpanProfiler::instance().disable();
        addSpanTotals(SpanProfiler::instance().collect(), classic_instrs,
                      totals);
        totals["workloads.build_s"] = build_s;
        out.raw("layers", renderTotals(totals));
    }
    out.u64("max_threads", max_threads)
        .raw("cells", renderCells(cells))
        .raw("provenance", provenance(config));
    std::printf("%s\n", out.render().c_str());
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    return opts.mode == "populate" ? populate(opts) : measure(opts);
}
