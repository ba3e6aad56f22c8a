/**
 * @file
 * Timing-backend throughput microbenchmark: times classic
 * interpretation under the scalar (golden) and pipelined cycle
 * backends over the workload registry and emits BENCH_timing.json so
 * both the simulator-throughput cost of the hazard accounting and the
 * modeled cycle inflation are tracked across PRs.
 *
 * Two numbers per workload matter here:
 *
 *  - host throughput (instrs/s) under each backend — the pipelined
 *    backend's onRetire call is the only addition to the hot loop, so
 *    the scalar/pipelined ratio is exactly the price of hazard
 *    accounting (and the scalar path must not regress at all: the
 *    retire hook compiles out of the scalar template instantiation);
 *
 *  - modeled cycle inflation % — how many extra cycles the 5-stage
 *    hazards add over the scalar model, which by the additive contract
 *    equals hazardCycles()/scalar.cycles.
 *
 * Methodology matches perf_interp: best-of-`--repeats` on a freshly
 * constructed machine per repeat; CI gates only on "runs and emits
 * valid JSON", never on thresholds.
 *
 *   perf_timing [--quick] [--repeats <n>] [--out <path>]
 *               [--predictor <nottaken|bimodal|gshare>]
 *
 * `--repeats` takes 1..1000 (default 3); a bad value or flag prints
 * usage and exits 2 (bench::ArgReader).
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "timing/timing.h"
#include "workloads/registry.h"

#include "common.h"

namespace {

using amnesiac::EnergyConfig;
using amnesiac::EnergyModel;
using amnesiac::HierarchyConfig;
using amnesiac::Machine;
using amnesiac::PredictorKind;
using amnesiac::TimingBackend;
using amnesiac::TimingConfig;
using amnesiac::Workload;

using WallClock = std::chrono::steady_clock;

constexpr std::uint64_t kRunLimit = 1ull << 32;

double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

/** One backend's timed runs of one workload. */
struct BackendResult
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t hazardCycles = 0;
    double bestSec = 0.0;

    double instrsPerSec() const
    {
        return bestSec <= 0.0 ? 0.0
                              : static_cast<double>(instrs) / bestSec;
    }
    double nsPerInstr() const
    {
        return instrs == 0
                   ? 0.0
                   : bestSec * 1e9 / static_cast<double>(instrs);
    }
};

struct WorkloadResult
{
    std::string name;
    BackendResult scalar;
    BackendResult pipelined;

    /** Modeled extra cycles of the pipelined backend, % of scalar. */
    double cycleInflationPct() const
    {
        return scalar.cycles == 0
                   ? 0.0
                   : 100.0 *
                         static_cast<double>(pipelined.cycles -
                                             scalar.cycles) /
                         static_cast<double>(scalar.cycles);
    }
};

BackendResult
timeBackend(const Workload &workload, const EnergyModel &energy,
            const HierarchyConfig &hierarchy, const TimingConfig &timing,
            int repeats)
{
    BackendResult r;
    for (int rep = 0; rep < repeats; ++rep) {
        Machine machine(workload.program, energy, hierarchy, timing);
        WallClock::time_point t0 = WallClock::now();
        machine.run(kRunLimit);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < r.bestSec)
            r.bestSec = sec;
        r.instrs = machine.stats().dynInstrs;
        r.cycles = machine.stats().cycles;
        r.hazardCycles = machine.stats().hazardCycles();
    }
    return r;
}

void
appendBackendJson(std::string &out, const char *key,
                  const BackendResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"instrs\":%" PRIu64 ",\"cycles\":%" PRIu64
                  ",\"hazardCycles\":%" PRIu64
                  ",\"bestSec\":%.9f,\"nsPerInstr\":%.4f,"
                  "\"instrsPerSec\":%.1f}",
                  key, r.instrs, r.cycles, r.hazardCycles, r.bestSec,
                  r.nsPerInstr(), r.instrsPerSec());
    out += buf;
}

/** Upper bound of --repeats: each repeat re-runs every phase. */
constexpr std::uint64_t kMaxRepeats = 1000;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--quick] [--repeats <n>] [--out <path>] "
                 "[--predictor <nottaken|bimodal|gshare>]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int repeats = 3;
    std::string out_path = "BENCH_timing.json";
    PredictorKind predictor = PredictorKind::Bimodal;

    amnesiac::bench::ArgReader r(argc, argv, usage);
    while (r.next()) {
        const std::string &arg = r.arg();
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--repeats") {
            repeats = static_cast<int>(r.integer(1, kMaxRepeats));
        } else if (arg == "--out") {
            out_path = r.value();
        } else if (arg == "--predictor") {
            const std::string name = r.value();
            if (!amnesiac::parsePredictorKind(name, predictor))
                r.fail("unknown predictor '" + name + "'");
        } else {
            r.fail("unknown argument '" + arg + "'");
        }
    }

    EnergyModel energy((EnergyConfig()));
    HierarchyConfig hierarchy;
    TimingConfig scalar_timing;
    TimingConfig pipelined_timing;
    pipelined_timing.backend = TimingBackend::Pipelined;
    pipelined_timing.predictor = predictor;

    std::vector<std::string> names =
        quick ? std::vector<std::string>{"mcf", "is", "bfs"}
              : amnesiac::registeredWorkloads();

    std::vector<WorkloadResult> results;
    for (const std::string &name : names) {
        std::fprintf(stderr, "  [perf] %s...\n", name.c_str());
        Workload workload = amnesiac::makeWorkload(name, 1);
        WorkloadResult r;
        r.name = name;
        r.scalar = timeBackend(workload, energy, hierarchy, scalar_timing,
                               repeats);
        r.pipelined = timeBackend(workload, energy, hierarchy,
                                  pipelined_timing, repeats);
        results.push_back(std::move(r));
    }

    std::string json = "{\n";
    {
        char buf[160];
        std::snprintf(
            buf, sizeof(buf),
            "  \"bench\": \"perf_timing\",\n  \"version\": 1,\n"
            "  \"quick\": %s,\n  \"repeats\": %d,\n"
            "  \"predictor\": \"%s\",\n",
            quick ? "true" : "false", repeats,
            std::string(amnesiac::predictorKindName(predictor)).c_str());
        json += buf;
    }
    json += "  \"workloads\": [\n";
    BackendResult scalar_total, pipelined_total;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        json += "    {\"name\":\"" + r.name + "\",";
        appendBackendJson(json, "scalar", r.scalar);
        json += ",";
        appendBackendJson(json, "pipelined", r.pipelined);
        char buf[64];
        std::snprintf(buf, sizeof(buf), ",\"cycleInflationPct\":%.4f}",
                      r.cycleInflationPct());
        json += buf;
        json += (i + 1 < results.size()) ? ",\n" : "\n";

        scalar_total.instrs += r.scalar.instrs;
        scalar_total.bestSec += r.scalar.bestSec;
        scalar_total.cycles += r.scalar.cycles;
        pipelined_total.instrs += r.pipelined.instrs;
        pipelined_total.bestSec += r.pipelined.bestSec;
        pipelined_total.cycles += r.pipelined.cycles;
        pipelined_total.hazardCycles += r.pipelined.hazardCycles;
    }
    json += "  ],\n  \"totals\": {";
    appendBackendJson(json, "scalar", scalar_total);
    json += ",";
    appendBackendJson(json, "pipelined", pipelined_total);
    {
        double inflation =
            scalar_total.cycles == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(pipelined_total.cycles -
                                          scalar_total.cycles) /
                      static_cast<double>(scalar_total.cycles);
        char buf[64];
        std::snprintf(buf, sizeof(buf), ",\"cycleInflationPct\":%.4f",
                      inflation);
        json += buf;
    }
    json += "}\n}\n";

    std::ofstream out(out_path, std::ios::binary);
    out << json;
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
        return 1;
    }

    std::printf(
        "backend     instrs/sec   ns/instr  (aggregate best-of-%d)\n",
        repeats);
    std::printf("scalar     %11.0f   %8.3f\n",
                scalar_total.instrsPerSec(), scalar_total.nsPerInstr());
    std::printf("pipelined  %11.0f   %8.3f\n",
                pipelined_total.instrsPerSec(),
                pipelined_total.nsPerInstr());
    std::printf("modeled cycle inflation: +%.3f%% (hazard cycles %" PRIu64
                ")\n",
                scalar_total.cycles == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(pipelined_total.cycles -
                                              scalar_total.cycles) /
                          static_cast<double>(scalar_total.cycles),
                pipelined_total.hazardCycles);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
