/**
 * @file
 * Per-static-RCMP-site attribution (the observability layer's second
 * pillar). A SiteCollector rides the same AmnesicTraceHooks as the
 * tracer but aggregates instead of buffering: one SiteStats row per
 * static RCMP pc, counting fires/fallbacks/aborts/mispredicts and
 * summing slice work and energy deltas. The ranked site report answers
 * "which RCMPs earn their keep" — the attribution the paper's
 * aggregate Table 4/5 numbers can't give.
 *
 * Invariants (checked by tests/obs_test.cc): across all sites, fires
 * sum to SimStats::recomputations and fallbacks to
 * SimStats::fallbackLoads.
 */

#ifndef AMNESIAC_OBS_SITE_METRICS_H
#define AMNESIAC_OBS_SITE_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"

namespace amnesiac {

/** Aggregated behaviour of one static RCMP site. */
struct SiteStats
{
    std::uint32_t pc = 0;       ///< static RCMP pc
    std::uint32_t sliceId = 0;
    std::uint64_t fires = 0;    ///< recomputations completed
    std::uint64_t fallbacks = 0;
    std::uint64_t histMissAborts = 0;   ///< subset of fallbacks
    std::uint64_t sfileAborts = 0;      ///< subset of fallbacks
    std::uint64_t mispredicts = 0;      ///< Predictor verdict != residence
    std::uint64_t sliceInstrs = 0;      ///< total slice instrs executed
    /** Estimated delta: the decision model's Eld - Erc summed over
     * fired instances (what the rule believed it was saving). */
    double estDeltaNj = 0.0;
    /** Realized delta: charged-model Eld - Erc over fired instances
     * (what the energy bill actually saw). */
    double realDeltaNj = 0.0;

    std::uint64_t instances() const { return fires + fallbacks; }
};

/**
 * Collects SiteStats from the machine's trace hooks into a table indexed
 * by RCMP pc. Deterministic: sites() returns rows in pc order, and
 * every field derives from the simulated event stream only.
 */
class SiteCollector : public AmnesicTraceHooks
{
  public:
    void onRcmp(const RcmpEvent &event) override;

    /** All observed sites (instances() > 0) in ascending pc order. */
    std::vector<SiteStats> sites() const;

  private:
    std::vector<SiteStats> _sites;  ///< indexed by pc
};

/**
 * Render the ranked site report: one row per site, sorted by realized
 * energy delta (best earner first; pc breaks ties for determinism),
 * with a totals row that must reconcile against SimStats.
 */
std::string renderSiteReport(const std::vector<SiteStats> &sites,
                             const std::string &title = {});

}  // namespace amnesiac

#endif  // AMNESIAC_OBS_SITE_METRICS_H
