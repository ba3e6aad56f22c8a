/**
 * @file
 * Tests pinned to the pluggable TimingModel extraction (src/timing/):
 *
 *  (a) the ScalarTimingModel is bit-identical to the pre-refactor
 *      implicit model — a golden FNV-1a digest over every SimStats
 *      field of (classic + all six policies) for every registry
 *      workload, captured from the build immediately before the
 *      extraction;
 *  (b) the branch predictors behave exactly as hand-computed (bimodal
 *      saturation, gshare history mixing);
 *  (c) the additive cross-backend contract holds everywhere: identical
 *      energy and instruction counts, pipelined.cycles ==
 *      scalar.cycles + hazardCycles(), and architectural state
 *      invariant under any predictor;
 *  (d) the pipelined fast run() loop matches the generic step() loop
 *      bit for bit (the 16-way dispatch's new upper half);
 *  (e) the differential fuzzing oracle stays green under both
 *      backends, and repro files round-trip the timing config;
 *  (f) the manifest config digest moves when any timing knob moves;
 *  (g) policy verdicts (EDP-gain signs) are stable across backends.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"
#include "core/compiler.h"
#include "isa/serialize.h"
#include "report/experiment.h"
#include "report/obs_export.h"
#include "sim/machine.h"
#include "testing/oracle.h"
#include "testing/repro.h"
#include "timing/predictor.h"
#include "timing/timing.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

// --- shared helpers --------------------------------------------------------

const std::vector<Policy> kSixPolicies = {
    Policy::Compiler, Policy::FLC,    Policy::LLC,
    Policy::COracle,  Policy::Oracle, Policy::Predictor};

TimingConfig
pipelinedConfig(PredictorKind kind = PredictorKind::Bimodal)
{
    TimingConfig t;
    t.backend = TimingBackend::Pipelined;
    t.predictor = kind;
    return t;
}

/** The two backends must agree on everything except hazard cycles. */
void
expectAdditiveContract(const SimStats &scalar, const SimStats &pipelined)
{
    // Architectural work: identical instruction stream.
    EXPECT_EQ(scalar.dynInstrs, pipelined.dynInstrs);
    EXPECT_EQ(scalar.dynLoads, pipelined.dynLoads);
    EXPECT_EQ(scalar.dynStores, pipelined.dynStores);
    EXPECT_EQ(scalar.perCategory, pipelined.perCategory);
    EXPECT_EQ(scalar.rcmpSeen, pipelined.rcmpSeen);
    EXPECT_EQ(scalar.recomputations, pipelined.recomputations);
    EXPECT_EQ(scalar.fallbackLoads, pipelined.fallbackLoads);
    EXPECT_EQ(scalar.histReads, pipelined.histReads);
    EXPECT_EQ(scalar.histWrites, pipelined.histWrites);
    // Energy: bit-identical doubles (same charges in the same order).
    EXPECT_EQ(scalar.energy.loadNj, pipelined.energy.loadNj);
    EXPECT_EQ(scalar.energy.storeNj, pipelined.energy.storeNj);
    EXPECT_EQ(scalar.energy.nonMemNj, pipelined.energy.nonMemNj);
    EXPECT_EQ(scalar.energy.histReadNj, pipelined.energy.histReadNj);
    // Cycles: base + hazards, exactly.
    EXPECT_EQ(scalar.hazardCycles(), 0u);
    EXPECT_EQ(pipelined.cycles,
              scalar.cycles + pipelined.hazardCycles());
    EXPECT_GE(pipelined.cycles, scalar.cycles);
}

void
expectStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.dynLoads, b.dynLoads);
    EXPECT_EQ(a.dynStores, b.dynStores);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy.loadNj, b.energy.loadNj);
    EXPECT_EQ(a.energy.storeNj, b.energy.storeNj);
    EXPECT_EQ(a.energy.nonMemNj, b.energy.nonMemNj);
    EXPECT_EQ(a.energy.histReadNj, b.energy.histReadNj);
    EXPECT_EQ(a.perCategory, b.perCategory);
    EXPECT_EQ(a.rcmpSeen, b.rcmpSeen);
    EXPECT_EQ(a.recomputations, b.recomputations);
    EXPECT_EQ(a.fallbackLoads, b.fallbackLoads);
    EXPECT_EQ(a.sfileAborts, b.sfileAborts);
    EXPECT_EQ(a.histMissFallbacks, b.histMissFallbacks);
    // The pipeline-hazard counters obey the same fast/slow contract.
    EXPECT_EQ(a.loadUseStalls, b.loadUseStalls);
    EXPECT_EQ(a.loadUseStallCycles, b.loadUseStallCycles);
    EXPECT_EQ(a.controlBubbles, b.controlBubbles);
    EXPECT_EQ(a.controlBubbleCycles, b.controlBubbleCycles);
    EXPECT_EQ(a.mispredictFlushes, b.mispredictFlushes);
    EXPECT_EQ(a.mispredictFlushCycles, b.mispredictFlushCycles);
    EXPECT_EQ(a.predictorHits, b.predictorHits);
    EXPECT_EQ(a.predictorMisses, b.predictorMisses);
}

void
expectArchIdentical(const Machine &a, const Machine &b)
{
    EXPECT_EQ(a.halted(), b.halted());
    EXPECT_EQ(a.pc(), b.pc());
    for (unsigned r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(a.reg(static_cast<Reg>(r)), b.reg(static_cast<Reg>(r)));
}

// --- (b) predictor unit tests ----------------------------------------------

TEST(TimingTest, NotTakenPredictorNeverPredictsTaken)
{
    NotTakenPredictor p;
    EXPECT_FALSE(p.predictTaken(0));
    p.update(0, true);
    p.update(0, true);
    EXPECT_FALSE(p.predictTaken(0));  // stateless by design
}

TEST(TimingTest, BimodalSaturatingCountersHandComputed)
{
    BimodalPredictor p(4);  // 16 entries, all weakly-not-taken (1)
    // Fresh table behaves like NotTaken.
    EXPECT_FALSE(p.predictTaken(7));
    // 1 -> 2 crosses the taken threshold.
    p.update(7, true);
    EXPECT_TRUE(p.predictTaken(7));
    // Saturate at 3: two not-taken outcomes are needed to flip back.
    p.update(7, true);  // 3
    p.update(7, true);  // stays 3
    p.update(7, false); // 2 — still predicts taken (hysteresis)
    EXPECT_TRUE(p.predictTaken(7));
    p.update(7, false); // 1
    EXPECT_FALSE(p.predictTaken(7));
    p.update(7, false); // 0
    p.update(7, false); // stays 0
    p.update(7, true);  // 1 — one taken is not enough from the floor
    EXPECT_FALSE(p.predictTaken(7));
    // Index masking: pc 7 and pc 7+16 alias to the same counter.
    p.update(7, true);  // 2
    EXPECT_TRUE(p.predictTaken(7 + 16));
    // Other entries are untouched.
    EXPECT_FALSE(p.predictTaken(6));
    p.reset();
    EXPECT_FALSE(p.predictTaken(7));
}

TEST(TimingTest, GshareHistoryMixingHandComputed)
{
    // 4-entry table (mask 3), 8 history bits; counters start at 1
    // (weakly not-taken), history at 0. index = (pc ^ history) & 3.
    GsharePredictor p(2, 8);
    EXPECT_FALSE(p.predictTaken(3));  // idx (3^0)&3 = 3, counter 1
    p.update(3, true);                // trains idx 3 -> 2; history = 1
    // Same pc now maps elsewhere: idx (3^1)&3 = 2, still weak.
    EXPECT_FALSE(p.predictTaken(3));
    p.update(3, true);                // trains idx 2 -> 2; history = 3
    EXPECT_FALSE(p.predictTaken(3));  // idx (3^3)&3 = 0, counter 1
    p.update(3, false);               // trains idx 0 -> 0; history = 6
    // A different pc reaches the counter trained by the first update:
    // idx (5^6)&3 = 3, counter 2 -> taken.
    EXPECT_TRUE(p.predictTaken(5));
    p.reset();                        // history and counters forgotten
    EXPECT_FALSE(p.predictTaken(5));  // idx (5^0)&3 = 1, counter 1
}

TEST(TimingTest, PredictorNamesRoundTrip)
{
    for (PredictorKind kind : kAllPredictorKinds) {
        PredictorKind parsed = PredictorKind::NotTaken;
        EXPECT_TRUE(parsePredictorKind(
            std::string(predictorKindName(kind)), parsed));
        EXPECT_EQ(parsed, kind);
        EXPECT_EQ(makePredictor(kind)->kind(), kind);
    }
    PredictorKind out;
    EXPECT_FALSE(parsePredictorKind("tournament", out));
    TimingBackend backend;
    EXPECT_TRUE(parseTimingBackend("pipelined", backend));
    EXPECT_EQ(backend, TimingBackend::Pipelined);
    EXPECT_FALSE(parseTimingBackend("ooo", backend));
}

// --- (a) scalar backend is bit-identical to the pre-refactor model ---------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
appendStats(std::string &out, const SimStats &s)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "i=%" PRIu64 ";l=%" PRIu64 ";s=%" PRIu64 ";c=%" PRIu64
        ";wb=%" PRIu64
        ";ld=%.17g;st=%.17g;nm=%.17g;h=%.17g;rs=%" PRIu64 ";rc=%" PRIu64
        ";fb=%" PRIu64 ";ri=%" PRIu64 ";hr=%" PRIu64 ";hw=%" PRIu64
        ";ho=%" PRIu64 ";sa=%" PRIu64 ";hm=%" PRIu64 ";",
        s.dynInstrs, s.dynLoads, s.dynStores, s.cycles,
        s.l2WritebackInstalls, s.energy.loadNj, s.energy.storeNj,
        s.energy.nonMemNj, s.energy.histReadNj, s.rcmpSeen,
        s.recomputations, s.fallbackLoads, s.recomputedInstrs,
        s.histReads, s.histWrites, s.histOverflows, s.sfileAborts,
        s.histMissFallbacks);
    out += buf;
}

/** FNV-1a over a compile's serialized .amnb, then every CompileStats
 * field in declaration order. */
std::uint64_t
compileDigest(const CompileResult &compiled)
{
    const std::vector<std::uint8_t> amnb =
        serializeProgram(compiled.program);
    std::string blob(amnb.begin(), amnb.end());
    const CompileStats &s = compiled.stats;
    for (std::uint64_t field :
         {s.sitesSeen, s.rejectedCold, s.rejectedUnstable,
          s.rejectedNoSlice, s.rejectedEnergy, s.rejectedMatch,
          s.selected, s.recInsertions, s.coveredDynLoads,
          s.totalDynLoads, s.analysisWarnings, s.analysisNotes,
          s.prunedSites, s.prunedProductions}) {
        blob += std::to_string(field);
        blob += ';';
    }
    return fnv1a(blob);
}

// Captured at the default ExperimentConfig, seed 1, from the build
// immediately before the TimingModel extraction: FNV-1a over the
// appendStats() rendering of (classic, then each of the six policies
// in kSixPolicies order) per workload. Any drift in any counter or
// energy double of the scalar backend lands here.
//
// `compiled` and `oracle` pin the two CompileResults of the same run:
// compileDigest() of the Compiler set and of the Oracle set, captured
// from the build that still compiled each set with its own profile and
// dry-run replays.
struct GoldenDigest
{
    const char *workload;
    std::uint64_t digest;
    std::uint64_t compiled;
    std::uint64_t oracle;
};

constexpr GoldenDigest kScalarGolden[] = {
    {"mcf", 0xef5619c68858aaffull,
     0x458c03b149af5d5aull, 0x458c03b149af5d5aull},
    {"sx", 0x3b5049a002bcc114ull,
     0xb24b5f159dcf0b08ull, 0xbf33d23a2493d98bull},
    {"cg", 0x2fec1d3249f6eb91ull,
     0x7c9540bef79f0c06ull, 0x71c3ee62fb1f5f65ull},
    {"is", 0x31f2998686dbffbaull,
     0x77af6e8cfcdde8e7ull, 0x77af6e8cfcdde8e7ull},
    {"ca", 0x7e36f71dafcd77cbull,
     0x8c7074781f3111c2ull, 0x8c7074781f3111c2ull},
    {"fs", 0xbdbe07bfdea7084aull,
     0x02b9db532613185full, 0xecd985427d6b0cabull},
    {"fe", 0xd0fe292f9ec6cbf1ull,
     0x68847eed2fab478cull, 0x7690a5f6a6b5943cull},
    {"rt", 0xde693c8881915de9ull,
     0x8972707adbde9d2aull, 0x8972707adbde9d2aull},
    {"bp", 0x059ae8ee34601525ull,
     0x6eab5696c62d7a0eull, 0x6eab5696c62d7a0eull},
    {"bfs", 0x34f264cf091a777full,
     0x1ec68586fd0a0128ull, 0x1ec68586fd0a0128ull},
    {"sr", 0x6b4cff803f23be86ull,
     0xee9ab63248ae6349ull, 0xee9ab63248ae6349ull},
    {"stream-recompute", 0x741fc16565b663e9ull,
     0x68158d4aa3b4ffa3ull, 0x68158d4aa3b4ffa3ull},
    {"hist-stress", 0xb49193fc01484638ull,
     0xd3fe20351aae9886ull, 0xd3fe20351aae9886ull},
    {"compute-bound", 0xa4be35625424368full,
     0xf0fac8b2955e4b2aull, 0xcb171b330213d985ull},
};

TEST(TimingTest, ScalarBackendMatchesPreRefactorGoldenDigests)
{
    // jobs=0 (pool-sized) is safe against the serially-captured goldens
    // by the fan-out determinism contract experiment_test pins.
    ExperimentRunner runner{ExperimentConfig{}};
    for (const GoldenDigest &golden : kScalarGolden) {
        SCOPED_TRACE(golden.workload);
        BenchmarkResult result =
            runner.run(makeWorkload(golden.workload, 1), kSixPolicies);
        std::string blob;
        appendStats(blob, result.classic);
        ASSERT_EQ(result.policies.size(), kSixPolicies.size());
        for (const PolicyOutcome &outcome : result.policies)
            appendStats(blob, outcome.stats);
        EXPECT_EQ(fnv1a(blob), golden.digest);
        EXPECT_EQ(compileDigest(result.compiled), golden.compiled);
        EXPECT_EQ(compileDigest(result.oracleCompiled), golden.oracle);
    }
}

// --- (c) cross-backend invariants ------------------------------------------

TEST(TimingTest, AdditiveContractHoldsOnClassicRegistryAllPredictors)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    for (const std::string &name : registeredWorkloads()) {
        SCOPED_TRACE(name);
        Workload workload = makeWorkload(name, 1);
        Machine scalar(workload.program, energy, config.hierarchy);
        scalar.run(config.runLimit);
        ASSERT_TRUE(scalar.halted());

        for (PredictorKind kind : kAllPredictorKinds) {
            SCOPED_TRACE(predictorKindName(kind));
            Machine pipelined(workload.program, energy, config.hierarchy,
                              pipelinedConfig(kind));
            pipelined.run(config.runLimit);
            ASSERT_TRUE(pipelined.halted());
            expectAdditiveContract(scalar.stats(), pipelined.stats());
            expectArchIdentical(scalar, pipelined);
            // Every registry workload loops, so conditional branches
            // retired and the predictor was consulted.
            EXPECT_GT(pipelined.stats().predictorHits +
                          pipelined.stats().predictorMisses,
                      0u);
        }
    }
}

TEST(TimingTest, TrainedPredictorsBeatNotTakenOnLoopCode)
{
    // Registry kernels are loop-dominated (backward taken branches), so
    // always-not-taken must lose to both trained predictors in
    // aggregate — this pins the predictors actually being consulted
    // rather than all kinds silently sharing one implementation.
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    std::uint64_t hits[3] = {0, 0, 0}, misses[3] = {0, 0, 0};
    for (const std::string &name : {std::string("mcf"), std::string("is"),
                                    std::string("bfs")}) {
        Workload workload = makeWorkload(name, 1);
        for (std::size_t k = 0; k < 3; ++k) {
            Machine m(workload.program, energy, config.hierarchy,
                      pipelinedConfig(kAllPredictorKinds[k]));
            m.run(config.runLimit);
            hits[k] += m.stats().predictorHits;
            misses[k] += m.stats().predictorMisses;
        }
    }
    // Same branches retired under every predictor.
    EXPECT_EQ(hits[0] + misses[0], hits[1] + misses[1]);
    EXPECT_EQ(hits[0] + misses[0], hits[2] + misses[2]);
    EXPECT_GT(hits[1], hits[0]);  // bimodal > not-taken
    EXPECT_GT(hits[2], hits[0]);  // gshare > not-taken
}

TEST(TimingTest, AdditiveContractHoldsOnAmnesicEveryPolicy)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    Workload workload = makeWorkload("stream-recompute", 1);

    for (Policy policy : kSixPolicies) {
        SCOPED_TRACE(policyName(policy));
        CompilerConfig compiler_config = config.compiler;
        compiler_config.runLimit = config.runLimit;
        compiler_config.oracleSet = needsOracleSet(policy);
        AmnesicCompiler compiler(energy, config.hierarchy,
                                 compiler_config);
        CompileResult compiled = compiler.compile(workload.program);
        AmnesicConfig amnesic = config.amnesic;
        amnesic.policy = policy;

        AmnesicMachine scalar(compiled.program, energy, amnesic,
                              config.hierarchy);
        scalar.run(config.runLimit);
        AmnesicMachine pipelined(compiled.program, energy, amnesic,
                                 config.hierarchy, pipelinedConfig());
        pipelined.run(config.runLimit);

        expectAdditiveContract(scalar.stats(), pipelined.stats());
        expectArchIdentical(scalar, pipelined);
        EXPECT_GT(scalar.stats().rcmpSeen, 0u);
    }
}

// --- (d) pipelined fast loop vs generic step loop --------------------------

TEST(TimingTest, PipelinedClassicFastLoopMatchesStepLoop)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    for (const char *name : {"mcf", "is", "bfs", "compute-bound"}) {
        SCOPED_TRACE(name);
        Workload workload = makeWorkload(name, 1);

        Machine fast(workload.program, energy, config.hierarchy,
                     pipelinedConfig());
        fast.run(config.runLimit);

        Machine slow(workload.program, energy, config.hierarchy,
                     pipelinedConfig());
        while (slow.step()) {
        }

        expectStatsIdentical(fast.stats(), slow.stats());
        expectArchIdentical(fast, slow);
        EXPECT_GT(fast.stats().hazardCycles(), 0u);
    }
}

TEST(TimingTest, PipelinedAmnesicFastLoopMatchesStepLoopEveryPolicy)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    Workload workload = makeWorkload("stream-recompute", 1);

    for (Policy policy : kSixPolicies) {
        SCOPED_TRACE(policyName(policy));
        CompilerConfig compiler_config = config.compiler;
        compiler_config.runLimit = config.runLimit;
        compiler_config.oracleSet = needsOracleSet(policy);
        AmnesicCompiler compiler(energy, config.hierarchy,
                                 compiler_config);
        CompileResult compiled = compiler.compile(workload.program);
        AmnesicConfig amnesic = config.amnesic;
        amnesic.policy = policy;

        AmnesicMachine fast(compiled.program, energy, amnesic,
                            config.hierarchy, pipelinedConfig());
        fast.run(config.runLimit);

        AmnesicMachine slow(compiled.program, energy, amnesic,
                            config.hierarchy, pipelinedConfig());
        while (slow.step()) {
        }

        expectStatsIdentical(fast.stats(), slow.stats());
        expectArchIdentical(fast, slow);
    }
}

// --- (e) differential oracle under both backends + repro round-trip --------

TEST(TimingTest, DifferentialOracleGreenUnderBothBackends)
{
    GeneratorConfig gen;
    gen.faultProbability = 0.0;  // clean-transparency cases only
    for (std::uint64_t index = 0; index < 3; ++index) {
        GenCase test_case = generateCase(20260808, index, gen);
        SCOPED_TRACE(test_case.label());

        DifferentialReport scalar = runDifferential(test_case);
        EXPECT_FALSE(scalar.failed()) << scalar.render();

        for (PredictorKind kind : kAllPredictorKinds) {
            SCOPED_TRACE(predictorKindName(kind));
            GenCase pipelined_case = test_case;
            pipelined_case.timing = pipelinedConfig(kind);
            DifferentialReport pipelined =
                runDifferential(pipelined_case);
            EXPECT_FALSE(pipelined.failed()) << pipelined.render();
            // The oracle's classic baseline obeys the contract too.
            expectAdditiveContract(scalar.classicStats,
                                   pipelined.classicStats);
        }
    }
}

TEST(TimingTest, ReproRoundTripsTimingConfig)
{
    GenCase original = generateCase(7, 0);
    original.timing = pipelinedConfig(PredictorKind::Gshare);
    original.timing.predictorLogEntries = 6;
    original.timing.loadUseStallCycles = 2;
    original.timing.mispredictPenaltyCycles = 5;
    original.timing.jumpBubbleCycles = 3;

    GenCase parsed;
    std::string error;
    ASSERT_TRUE(parseRepro(renderRepro(original), parsed, error)) << error;
    EXPECT_EQ(parsed.timing.backend, TimingBackend::Pipelined);
    EXPECT_EQ(parsed.timing.predictor, PredictorKind::Gshare);
    EXPECT_EQ(parsed.timing.predictorLogEntries, 6u);
    EXPECT_EQ(parsed.timing.loadUseStallCycles, 2u);
    EXPECT_EQ(parsed.timing.mispredictPenaltyCycles, 5u);
    EXPECT_EQ(parsed.timing.jumpBubbleCycles, 3u);

    // Pre-timing repro files lack the keys entirely: scalar defaults.
    GenCase defaulted = generateCase(7, 1);
    std::string text = renderRepro(defaulted);
    ASSERT_TRUE(parseRepro(text, parsed, error)) << error;
    EXPECT_EQ(parsed.timing.backend, TimingBackend::Scalar);
    EXPECT_EQ(parsed.timing.predictor, PredictorKind::Bimodal);

    // A present-but-unknown name is a hand-edit error, not a default.
    std::size_t pos = text.find("\"scalar\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 8, "\"vliw37\"");
    EXPECT_FALSE(parseRepro(text, parsed, error));
}

// --- (f) provenance: timing knobs are digest-visible -----------------------

TEST(TimingTest, ConfigDigestCoversEveryTimingKnob)
{
    ExperimentConfig base;
    std::string base_str = ExperimentRunner::canonicalConfigString(base);
    EXPECT_EQ(ExperimentRunner::canonicalConfigString(ExperimentConfig{}),
              base_str);

    auto differs = [&](auto mutate) {
        ExperimentConfig changed;
        mutate(changed.timing);
        return ExperimentRunner::canonicalConfigString(changed) !=
               base_str;
    };
    EXPECT_TRUE(differs([](TimingConfig &t) {
        t.backend = TimingBackend::Pipelined;
    }));
    EXPECT_TRUE(differs([](TimingConfig &t) {
        t.predictor = PredictorKind::Gshare;
    }));
    EXPECT_TRUE(
        differs([](TimingConfig &t) { t.predictorLogEntries = 12; }));
    EXPECT_TRUE(
        differs([](TimingConfig &t) { t.loadUseStallCycles = 2; }));
    EXPECT_TRUE(
        differs([](TimingConfig &t) { t.mispredictPenaltyCycles = 7; }));
    EXPECT_TRUE(
        differs([](TimingConfig &t) { t.jumpBubbleCycles = 2; }));
}

// --- (g) verdict stability + the counters reach summary and metrics --------

TEST(TimingTest, PolicyVerdictSignsStableAcrossBackends)
{
    // Hazard cycles inflate classic and amnesic runs nearly alike, so
    // whether a policy wins on EDP must not flip with the backend
    // (tolerating near-zero gains, where the sign is not a verdict).
    for (const char *name : {"mcf", "stream-recompute"}) {
        SCOPED_TRACE(name);
        Workload workload = makeWorkload(name, 1);

        ExperimentConfig scalar_config;
        ExperimentConfig pipelined_config;
        pipelined_config.timing = pipelinedConfig();

        BenchmarkResult scalar =
            ExperimentRunner(scalar_config).run(workload, {Policy::FLC});
        BenchmarkResult pipelined = ExperimentRunner(pipelined_config)
                                        .run(workload, {Policy::FLC});
        double a = scalar.byPolicy(Policy::FLC)->edpGainPct;
        double b = pipelined.byPolicy(Policy::FLC)->edpGainPct;
        EXPECT_TRUE((a > 0) == (b > 0) ||
                    (std::abs(a) < 0.5 && std::abs(b) < 0.5))
            << "scalar EDP gain " << a << "% vs pipelined " << b << "%";
    }
}

TEST(TimingTest, HazardCountersReachSummaryAndMetrics)
{
    ExperimentConfig config;
    config.timing = pipelinedConfig();
    ExperimentRunner runner(config);
    EnergyModel energy(config.energy);
    BenchmarkResult result =
        runner.run(makeWorkload("stream-recompute", 1), {Policy::FLC});

    EXPECT_NE(result.classic.summary(energy).find("pipeline:"),
              std::string::npos);
    EXPECT_NE(result.classic.summary(energy).find("predictor:"),
              std::string::npos);
    // Scalar runs keep the summary free of vacuous zero lines.
    ExperimentRunner scalar_runner{ExperimentConfig{}};
    SimStats scalar = scalar_runner.runClassic(
        makeWorkload("stream-recompute", 1).program);
    EXPECT_EQ(scalar.summary(energy).find("pipeline:"),
              std::string::npos);

    MetricsRegistry metrics;
    fillMetrics(metrics, {result});
    std::string prom = metrics.renderPrometheus();
    EXPECT_NE(prom.find("amnesiac_load_use_stalls_total"),
              std::string::npos);
    EXPECT_NE(prom.find("amnesiac_hazard_cycles_total"),
              std::string::npos);
    EXPECT_NE(prom.find("amnesiac_predictor_hits_total"),
              std::string::npos);
}

}  // namespace
}  // namespace amnesiac
