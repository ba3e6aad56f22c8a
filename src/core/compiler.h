/**
 * @file
 * The amnesic compiler (§3.1): profiles the program, extracts and
 * validates recomputation slices, and rewrites the binary — swapping
 * each selected load for an RCMP, inserting RECs before the originals
 * of history-fed leaves, and appending the slice region.
 */

#ifndef AMNESIAC_CORE_COMPILER_H
#define AMNESIAC_CORE_COMPILER_H

#include <array>
#include <vector>

#include "core/slice_builder.h"
#include "energy/epi.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "obs/span.h"

namespace amnesiac {

/** Compiler pass configuration. */
struct CompilerConfig
{
    SliceBuilderConfig builder;
    /** Minimum share of a site's dynamic instances that must exhibit
     * the dominant backward-slice shape (§3.1.1 is profile-driven). */
    double stabilityThreshold = 0.90;
    /**
     * Minimum dry-run functional match rate. 1.0 (default) admits only
     * slices that reproduced the loaded value at every profiled
     * instance — the soundness guard described in DESIGN.md §5.
     */
    double matchThreshold = 1.0;
    /** Ignore sites colder than this many dynamic instances. */
    std::uint64_t minSiteCount = 8;
    /** Select iff ErcEstimate < profitabilityMargin × EldEstimate. */
    double profitabilityMargin = 1.0;
    /**
     * Estimate Eld from the global per-level hit statistics of the
     * profiling run, as the paper does (§3.1.1). This is the model whose
     * inaccuracy the evaluation measures via C-Oracle vs Compiler; set
     * false for the exact per-site model (an ablation of ours).
     */
    bool globalResidenceModel = true;
    /**
     * compile() builds the Oracle slice set (§5.1): grow every feasible
     * slice against the maximum (memory-resident) budget and skip the
     * probabilistic profitability filter; the runtime oracle decides
     * per dynamic instance. compileSets() names its sets explicitly.
     */
    bool oracleSet = false;
    /**
     * Run the static candidate pruner before dynamic profiling: a
     * fixpoint dataflow solve (value ranges, reaching defs, trip-count
     * bounds, store footprints) discards productions and load sites
     * that provably cannot survive selection, so the profiler skips
     * their per-instance tree work. Conservative-only: the selected
     * candidate set and the emitted binary are byte-identical with and
     * without pruning — only compile time changes. Excluded from the
     * canonical experiment config string for the same reason.
     */
    bool prune = true;
    /** Runaway guard for the profiling simulations. */
    std::uint64_t runLimit = 1ull << 32;
    /**
     * Unused: nothing in src/ reads this field. Profiling is always one
     * serial pass. Kept only so existing callers that assign or print
     * it still build; it is in neither the artifact-cache key nor the
     * config digest.
     */
    unsigned profileJobs = 1;
};

/** Why candidates were kept or dropped (reported by benches/tests). */
struct CompileStats
{
    std::uint64_t sitesSeen = 0;
    std::uint64_t rejectedCold = 0;
    std::uint64_t rejectedUnstable = 0;
    std::uint64_t rejectedNoSlice = 0;
    std::uint64_t rejectedEnergy = 0;
    std::uint64_t rejectedMatch = 0;
    std::uint64_t selected = 0;
    std::uint64_t recInsertions = 0;
    /** Dynamic loads covered by the selected sites (profiling run). */
    std::uint64_t coveredDynLoads = 0;
    std::uint64_t totalDynLoads = 0;
    /** Findings of the mandatory post-compile analysis gate (the gate
     * aborts on Error-severity findings, so these only count the
     * surviving severities). */
    std::uint64_t analysisWarnings = 0;
    std::uint64_t analysisNotes = 0;
    /** Load sites the static pruner excused from tree analysis. */
    std::uint64_t prunedSites = 0;
    /** Reachable sliceable productions replaced by opaque sentinels. */
    std::uint64_t prunedProductions = 0;
};

/** Output of the compiler pass. */
struct CompileResult
{
    /** The rewritten (amnesic) binary. */
    Program program;
    /** The selected slices; index == slice id in the binary. */
    std::vector<RSlice> slices;
    CompileStats stats;
    /** Wall-clock seconds spent in static analysis: the pre-profiling
     * dataflow solve + pruner plus the post-compile analysis gate. */
    double analysisSec = 0.0;
    /** Wall-clock seconds of the dependence-profiling pass (pass 1
     * only — a share of the pipeline's compileSec, like analysisSec). */
    double profileSec = 0.0;
    /**
     * Gap-free per-pass wall-clock laps over the compile() body, in
     * execution order (prune, profile, select, dryrun, rewrite, gate):
     * each entry covers everything since the previous one, so the
     * entries sum to the body's wall time. A compileSets() call files
     * its shared laps (prune, profile, dryrun) under its first set
     * only. Diagnostic only — never
     * serialized into cached artifacts (a cache hit legitimately has an
     * empty table). Feeds RunManifest::passes.
     */
    std::vector<PassTime> passTimes;
};

/** The slice sets of one compileSets() call; a set that was not
 * requested stays default-constructed. */
struct CompiledSets
{
    /** The probabilistic Compiler set (§3.1.1). */
    CompileResult normal;
    /** The Oracle set (§5.1). */
    CompileResult oracle;
};

class Profiler;

/**
 * Profile-guided amnesic compilation. One static prune and two classic
 * replays serve every requested slice set: dependence/residence
 * profiling, then dry-run validation of all sets' candidates at once.
 * Selection, the rewrite and the analysis gate then run per set. The
 * input binary must be slice-free.
 */
class AmnesicCompiler
{
  public:
    AmnesicCompiler(const EnergyModel &energy,
                    const HierarchyConfig &hierarchy = {},
                    const CompilerConfig &config = {});

    /** Build the one set CompilerConfig::oracleSet names. */
    CompileResult compile(const Program &input) const;

    /**
     * Build the requested slice sets (at least one) from one prune, one
     * profile replay and one dry-run replay; CompilerConfig::oracleSet
     * is not read. The shared laps (prune, profile, dryrun), with their
     * analysisSec and profileSec shares, land in the first requested
     * set only: summed over the sets, each lap counts once and the
     * laps add up to the call's wall time.
     */
    CompiledSets compileSets(const Program &input, bool want_normal,
                             bool want_oracle) const;

    /**
     * Rewrite only (exposed for tests): swap the given loads and embed
     * the given slices; ids are assigned by position.
     */
    static Program rewrite(const Program &input,
                           const std::vector<RSlice> &slices,
                           CompileStats *stats = nullptr);

  private:
    /** Grow one set's candidate slices from the profile (pass 1b);
     * `global_pr` is the paper's global residence model, Pr_Li. */
    void select(const Profiler &profile,
                const std::array<double, kNumMemLevels> &global_pr,
                bool oracle_set, CompileStats &stats,
                std::vector<RSlice> &out) const;

    EnergyModel _energy;
    HierarchyConfig _hierarchy;
    CompilerConfig _config;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_COMPILER_H
