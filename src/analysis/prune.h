/**
 * @file
 * Static candidate pruning for the amnesic compiler.
 *
 * Before the (expensive) dynamic dependence-profiling run, the dataflow
 * facts already refute some load sites as RCMP candidates and some
 * value productions as slice material. computeStaticPrune() derives two
 * per-pc masks from DataflowFacts:
 *
 *  - skipSiteAnalysis: load sites whose candidacy is statically
 *    refuted. The profiler still counts their executions and records
 *    their value stream (so cold/stability accounting is unchanged) but
 *    skips dependence-tree capture.
 *  - opaqueProduction: sliceable instructions whose value provably
 *    never reaches any surviving site's dependence tree. The profiler
 *    replaces their node allocation with a shared sentinel.
 *
 * CONSERVATIVE-ONLY CONTRACT: pruning may only discard work the
 * compiler was guaranteed to reject anyway. The selected candidate set,
 * every emitted binary, simulation statistics, and trace bytes must be
 * identical with pruning on and off; only compile time may change.
 * Each rule below documents why the compiler's dynamic filters would
 * have rejected the site regardless.
 */

#ifndef AMNESIAC_ANALYSIS_PRUNE_H
#define AMNESIAC_ANALYSIS_PRUNE_H

#include <cstdint>
#include <vector>

#include "analysis/domains.h"
#include "energy/epi.h"
#include "isa/program.h"

namespace amnesiac {

/**
 * Mirror of the compiler knobs the prune rules must respect. One mask
 * serves both slice sets: its energy floor takes the larger of the two
 * margins, which prunes no site the Oracle set (budget bound only)
 * could keep.
 */
struct StaticPruneOptions
{
    /** Compiler's cold-site threshold (CompilerConfig::minSiteCount). */
    std::uint64_t minSiteCount = 8;
    /** CompilerConfig::profitabilityMargin. */
    double profitabilityMargin = 1.0;
    /** SliceBuilderConfig::budgetMargin. */
    double budgetMargin = 1.0;
    /** Energy model for the energy-floor rule; null disables it. */
    const EnergyModel *energy = nullptr;
};

struct StaticPruneResult
{
    /** Per main-code pc: 1 = skip dependence-tree capture at this load. */
    std::vector<std::uint8_t> skipSiteAnalysis;
    /** Per main-code pc: 1 = track this production as an opaque sentinel. */
    std::vector<std::uint8_t> opaqueProduction;
    /** Load sites statically refuted (reachable ones only). */
    std::uint64_t prunedSites = 0;
    /** Reachable sliceable productions marked opaque. */
    std::uint64_t prunedProductions = 0;
};

/**
 * Computes the prune masks for a slice-free input program from its
 * solved dataflow facts (which the caller typically shares with the
 * analysis passes).
 */
StaticPruneResult computeStaticPrune(const Program &program,
                                     const DataflowFacts &facts,
                                     const StaticPruneOptions &options);

}  // namespace amnesiac

#endif  // AMNESIAC_ANALYSIS_PRUNE_H
