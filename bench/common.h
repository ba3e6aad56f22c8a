/**
 * @file
 * Shared plumbing for the per-table/figure benchmark harnesses: builds
 * the 11-benchmark suite, runs the §5 pipeline (fanned out over the
 * experiment thread pool), parses the command-line knobs every harness
 * shares — including the observability outputs (--trace /
 * --site-report / --metrics) and the host-side span profiler
 * (--prof / --prof-out / --prof-report) — and prints the Table 3
 * configuration echo every harness leads with.
 */

#ifndef AMNESIAC_BENCH_COMMON_H
#define AMNESIAC_BENCH_COMMON_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "report/experiment.h"
#include "report/figures.h"
#include "report/obs_export.h"
#include "workloads/paper_suite.h"

namespace amnesiac::bench {

/** Everything a harness can be configured with from the command line. */
struct BenchArgs
{
    ExperimentConfig config;
    std::uint64_t seed = 1;
    /** Observability outputs; empty = not requested. */
    std::string tracePath;       ///< Chrome trace-event JSON
    std::string siteReportPath;  ///< ranked per-site text report
    std::string metricsPath;     ///< Prometheus text exposition
    /** Host-side span profiling (process-wide, works in every harness
     * including the sweeps — the profiler aggregates over whatever the
     * process runs). */
    bool prof = false;           ///< --prof, implied by the two paths
    std::string profOutPath;     ///< host-span Chrome trace JSON
    std::string profReportPath;  ///< aggregated flame table (text)
};

inline void writeArtifact(const std::string &path,
                          const std::string &content);

/**
 * Turn on the host-side span profiler and register an exit-time writer
 * for its artifacts: the Chrome trace to `profOutPath` (if set) and the
 * flame table to `profReportPath` (if set) or stderr otherwise. Writing
 * at exit keeps the instrumentation window maximal — teardown included
 * — and spares the 21 harness mains from any per-harness plumbing.
 * No-op unless profiling was requested.
 */
inline void
enableHostProfiling(const BenchArgs &args)
{
    if (!args.prof)
        return;
    // atexit handlers cannot capture; stash the paths in function-local
    // statics (initialized exactly once, before the handler can run).
    static std::string prof_out;
    static std::string prof_report;
    prof_out = args.profOutPath;
    prof_report = args.profReportPath;
    SpanProfiler::instance().enable();
    std::atexit([]() {
        SpanProfiler::instance().disable();
        const std::vector<SpanProfiler::ThreadSpans> threads =
            SpanProfiler::instance().collect();
        if (!prof_out.empty())
            writeArtifact(prof_out, renderHostSpanChromeTrace(threads));
        if (!prof_report.empty())
            writeArtifact(prof_report, renderSpanFlameTable(threads));
        else
            std::fprintf(stderr, "\n[prof] host-span flame table\n%s",
                         renderSpanFlameTable(threads).c_str());
    });
}

/**
 * Cursor over argv shared by every flag parser (parseArgs below, the
 * perf_interp/perf_timing harnesses, and the amnesiac-run, -trace,
 * -lint and -fuzz tools): splits `--flag=value`, fetches values,
 * and parses numbers strictly — the whole string, within range. A
 * missing, malformed or out-of-range value prints what was wrong, then
 * the parser's usage, and exits 2.
 */
class ArgReader
{
  public:
    /** Prints the parser's usage line and exits 2. */
    using Usage = void (*)(const char *argv0);

    ArgReader(int argc, char **argv, Usage usage)
        : _argc(argc), _argv(argv), _usage(usage)
    {
    }

    /** Step to the next argument; false once argv is exhausted. A
     * `--flag=value` whose value was never read is a usage error: the
     * flag takes no value. */
    bool
    next()
    {
        if (_inline)
            fail(_arg + " takes no value (got '" + _arg + "=" + *_inline +
                 "')");
        if (++_i >= _argc)
            return false;
        _arg = _argv[_i];
        _inline.reset();
        if (_arg.size() >= 2 && _arg[0] == '-') {
            if (auto eq = _arg.find('='); eq != std::string::npos) {
                _inline = _arg.substr(eq + 1);
                _arg.resize(eq);
            }
        }
        return true;
    }

    /** The current argument, without any `=value` suffix. */
    const std::string &arg() const { return _arg; }

    /** The current flag's value: its `=value` suffix or the next
     * argument. */
    std::string
    value()
    {
        if (_inline)
            return *std::exchange(_inline, std::nullopt);
        if (_i + 1 >= _argc)
            fail("missing value for " + _arg);
        return _argv[++_i];
    }

    /** value() as a decimal integer in [lo, hi]. */
    std::uint64_t
    integer(std::uint64_t lo, std::uint64_t hi)
    {
        const std::string text = value();
        const char *end = text.data() + text.size();
        std::uint64_t v = 0;
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc() || ptr != end || v < lo || v > hi)
            fail("bad value '" + text + "' for " + _arg +
                 " (want an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "])");
        return v;
    }

    /** value() as a finite number > 0. */
    double
    positive()
    {
        return real([](double v) { return v > 0.0; }, "a finite number > 0");
    }

    /** value() as a number in [0, 1]. */
    double
    fraction()
    {
        return real([](double v) { return v >= 0.0 && v <= 1.0; },
                    "a number in [0, 1]");
    }

    /** Report a command-line error and exit 2 through the usage. */
    [[noreturn]] void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "%s: %s\n", _argv[0], why.c_str());
        _usage(_argv[0]);
        std::exit(2);
    }

  private:
    /** value() as a finite number accepted by `in_range`. */
    double
    real(bool (*in_range)(double), const char *want)
    {
        const std::string text = value();
        const char *end = text.data() + text.size();
        double v = 0.0;
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
            !in_range(v))
            fail("bad value '" + text + "' for " + _arg + " (want " +
                 want + ")");
        return v;
    }

    int _argc;
    char **_argv;
    Usage _usage;
    int _i = 0;
    std::string _arg;
    std::optional<std::string> _inline;
};

/** Upper bound of --jobs: each worker is an OS thread. */
inline constexpr std::uint64_t kMaxJobs = 256;

/** Upper bound of the tools' --hist/--sfile: the SFile reserves its
 * capacity up front, and real structures hold hundreds of entries. */
inline constexpr std::uint64_t kMaxCapacity = 1u << 20;

/**
 * Apply the current argument if it is one of the flags every harness
 * and amnesiac-run share; false if it is not one of them:
 *
 *   --jobs <n>          worker threads for the experiment pipeline
 *                       (0 = hardware_concurrency, 1 = serial; default
 *                       0; at most kMaxJobs)
 *   --cache-dir <path>  content-addressed artifact cache for compiled
 *                       binaries (default: $AMNESIAC_CACHE_DIR if set,
 *                       else disabled)
 *   --no-cache          disable the artifact cache even if a directory
 *                       is configured
 *   --seed <n>          workload seed (default 1)
 *   --scale <x>         non-memory EPI scale, the §5.5 R knob (> 0)
 *   --timing <b>        cycle-accounting backend: scalar | pipelined
 *                       (default scalar, the historical golden model)
 *   --predictor <p>     branch predictor for the pipelined backend:
 *                       nottaken | bimodal | gshare (default bimodal)
 *   --trace <path>      write a Chrome/Perfetto trace of the run
 *   --site-report <path> write the ranked per-RCMP-site report
 *   --metrics <path>    write Prometheus metrics for the run
 *   --max-records <n>   per-policy trace buffer cap (count-based and
 *                       deterministic; exports state the dropped count)
 *   --prof              enable the host-side span profiler (flame
 *                       table to stderr at exit unless redirected)
 *   --prof-out <path>   write the host spans as Chrome trace JSON
 *                       (implies --prof)
 *   --prof-report <path> write the flame table there instead of
 *                       stderr (implies --prof)
 */
inline bool
parseSharedFlag(ArgReader &r, BenchArgs &args)
{
    const std::string &arg = r.arg();
    if (arg == "--jobs") {
        args.config.jobs = static_cast<unsigned>(r.integer(0, kMaxJobs));
    } else if (arg == "--cache-dir") {
        args.config.cacheDir = r.value();
    } else if (arg == "--no-cache") {
        args.config.noCache = true;
    } else if (arg == "--seed") {
        args.seed = r.integer(0, UINT64_MAX);
    } else if (arg == "--scale") {
        args.config.energy.nonMemScale = r.positive();
    } else if (arg == "--timing") {
        const std::string name = r.value();
        if (!parseTimingBackend(name, args.config.timing.backend))
            r.fail("unknown timing backend '" + name +
                   "' (scalar | pipelined)");
    } else if (arg == "--predictor") {
        const std::string name = r.value();
        if (!parsePredictorKind(name, args.config.timing.predictor))
            r.fail("unknown predictor '" + name +
                   "' (nottaken | bimodal | gshare)");
    } else if (arg == "--trace") {
        args.tracePath = r.value();
    } else if (arg == "--site-report") {
        args.siteReportPath = r.value();
    } else if (arg == "--metrics") {
        args.metricsPath = r.value();
    } else if (arg == "--max-records") {
        args.config.traceMaxRecords = r.integer(0, SIZE_MAX);
    } else if (arg == "--prof") {
        args.prof = true;
    } else if (arg == "--prof-out") {
        args.profOutPath = r.value();
    } else if (arg == "--prof-report") {
        args.profReportPath = r.value();
    } else {
        return false;
    }
    return true;
}

/**
 * Settle what the parsed flags imply — event buffering only when a
 * trace is going somewhere, the seed into the config, --prof implied by
 * its paths — and start host profiling if requested. Call once, after
 * the last flag.
 */
inline void
finishArgs(BenchArgs &args)
{
    // Event buffering costs memory; only pay for it when the trace is
    // actually going somewhere. Site attribution is always on.
    args.config.traceEvents = !args.tracePath.empty();
    args.config.seed = args.seed;
    args.prof = args.prof || !args.profOutPath.empty() ||
                !args.profReportPath.empty();
    enableHostProfiling(args);
}

[[noreturn]] inline void
harnessUsage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs <n>] "
                 "[--cache-dir <path>] [--no-cache] [--seed <n>] "
                 "[--scale <x>] [--timing <scalar|pipelined>] "
                 "[--predictor <nottaken|bimodal|gshare>] "
                 "[--trace <path>] "
                 "[--site-report <path>] [--metrics <path>] "
                 "[--max-records <n>] [--prof] [--prof-out <path>] "
                 "[--prof-report <path>]\n",
                 argv0);
    std::exit(2);
}

/**
 * Parse a harness command line: only the shared flags above, in either
 * `--flag value` or `--flag=value` spelling. Anything else, or a bad
 * value, prints usage and exits 2, so typos never silently run the
 * default experiment.
 */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    ArgReader r(argc, argv, harnessUsage);
    while (r.next())
        if (!parseSharedFlag(r, args))
            r.fail("unknown argument '" + r.arg() + "'");
    finishArgs(args);
    return args;
}

/**
 * Harnesses that sweep many configurations (the ablations, Table 6)
 * have no single result set to export, so the shared observability
 * flags cannot be honored there. Asking for one must fail loudly — a
 * requested artifact that silently never appears is worse than an
 * error.
 */
inline void
rejectObsArgs(const BenchArgs &args, const char *argv0)
{
    if (args.tracePath.empty() && args.siteReportPath.empty() &&
        args.metricsPath.empty())
        return;
    std::fprintf(stderr,
                 "%s: --trace/--site-report/--metrics are not supported "
                 "by this sweep harness (no single result set to "
                 "export); use amnesiac-run or amnesiac-trace on the "
                 "workload/config of interest instead\n",
                 argv0);
    std::exit(2);
}

/** Print the standard harness banner. */
inline void
banner(const std::string &title, const ExperimentConfig &config)
{
    std::printf("==============================================================\n");
    std::printf("AMNESIAC reproduction — %s\n", title.c_str());
    std::printf("==============================================================\n");
    std::printf("%s\n", renderArchitectureTable(config).c_str());
}

/** Write `content` to `path`, aborting loudly on failure: a silently
 * missing artifact would defeat the point of asking for one. */
inline void
writeArtifact(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "  [obs] wrote %s (%zu bytes)\n", path.c_str(),
                 content.size());
}

/** Emit whichever observability artifacts the arguments requested for
 * a finished set of results. */
inline void
writeObsArtifacts(const BenchArgs &args,
                  const std::vector<BenchmarkResult> &results)
{
    // A --trace/--metrics written while --prof is live also carries the
    // host spans recorded so far (the pool is idle here, so collect()'s
    // quiescence requirement holds); the exit-time --prof-out artifact
    // additionally covers teardown.
    const std::vector<SpanProfiler::ThreadSpans> host =
        SpanProfiler::enabled() ? SpanProfiler::instance().collect()
                                : std::vector<SpanProfiler::ThreadSpans>{};
    if (!args.tracePath.empty())
        writeArtifact(args.tracePath,
                      renderChromeTrace(traceTracks(results),
                                        phaseSpans(results), host));
    if (!args.siteReportPath.empty())
        writeArtifact(args.siteReportPath, renderAllSiteReports(results));
    if (!args.metricsPath.empty()) {
        MetricsRegistry metrics;
        fillMetrics(metrics, results);
        if (!host.empty())
            fillHostSpanMetrics(metrics, host);
        writeArtifact(args.metricsPath, metrics.renderPrometheus());
    }
}

/** Run every paper benchmark through the given policies, fanned out
 * over `config.jobs` workers (results are merged in suite order and
 * are bit-identical to a serial run). */
inline std::vector<BenchmarkResult>
runSuite(const ExperimentConfig &config,
         const std::vector<Policy> &policies =
             {kAllPolicies, kAllPolicies + std::size(kAllPolicies)},
         std::uint64_t seed = 1)
{
    ExperimentRunner runner(config);
    std::vector<Workload> workloads;
    for (const std::string &name : paperBenchmarkNames()) {
        std::fprintf(stderr, "  [suite] %s...\n", name.c_str());
        workloads.push_back(makePaperBenchmark(name, seed));
    }
    return runner.runMany(workloads, policies);
}

/** runSuite with the parsed harness arguments (config + seed), writing
 * any requested observability artifacts before returning. */
inline std::vector<BenchmarkResult>
runSuite(const BenchArgs &args,
         const std::vector<Policy> &policies =
             {kAllPolicies, kAllPolicies + std::size(kAllPolicies)})
{
    std::vector<BenchmarkResult> results =
        runSuite(args.config, policies, args.seed);
    writeObsArtifacts(args, results);
    return results;
}

}  // namespace amnesiac::bench

#endif  // AMNESIAC_BENCH_COMMON_H
