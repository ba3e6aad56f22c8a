/**
 * @file
 * Functional dry-run validation of candidate slices.
 *
 * Before swapping a load, the compiler replays a classic run with a
 * shadow history table and evaluates every candidate slice at every
 * dynamic instance of its load, comparing the recomputed value with the
 * actually loaded one. Sites whose slices do not reproduce the loaded
 * value are rejected. This is a soundness guard the paper's
 * proof-of-concept does not include (see DESIGN.md §5).
 */

#ifndef AMNESIAC_CORE_DRY_RUN_H
#define AMNESIAC_CORE_DRY_RUN_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rslice.h"
#include "sim/machine.h"

namespace amnesiac {

/** Per-candidate outcome of the validation pass. */
struct DryRunSiteResult
{
    std::uint64_t evaluated = 0;
    std::uint64_t matched = 0;
    /** Instances where a needed shadow-Hist entry was not yet written. */
    std::uint64_t histMisses = 0;

    double
    matchRate() const
    {
        return evaluated == 0
            ? 0.0
            : static_cast<double>(matched) / static_cast<double>(evaluated);
    }
};

/**
 * Observer implementing the validation pass over the *original*
 * (pre-rewrite) binary.
 */
class DryRunValidator : public MachineObserver
{
  public:
    /** @param candidates candidate slices; several may target one
     * load pc (one replay validates every slice set together) */
    explicit DryRunValidator(const std::vector<RSlice> &candidates);

    void onExec(const ExecutionEngine &m, std::uint32_t pc,
                const Instruction &instr) override;
    void onLoad(const ExecutionEngine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;

    /** Result for candidates[candidate]. */
    const DryRunSiteResult &result(std::size_t candidate) const;

  private:
    /** A shadow Hist slot: one per slice instruction of a candidate. */
    struct ShadowEntry
    {
        std::array<std::uint64_t, 2> values{};
        bool written = false;
    };

    /** Evaluate candidate `cand` at one dynamic instance of its load. */
    void evaluate(const ExecutionEngine &m, std::size_t cand,
                  std::uint64_t loaded);

    const std::vector<RSlice> *_candidates;
    /** load pc -> the candidates replacing that load. */
    std::vector<std::vector<std::size_t>> _byLoadPc;
    /** capture pc -> [(candidate, instr index)]. */
    std::vector<std::vector<std::pair<std::size_t, std::uint32_t>>>
        _captures;
    /** Candidate c's slice instruction i has slot _histBase[c] + i. */
    std::vector<std::size_t> _histBase;
    std::vector<ShadowEntry> _shadowHist;
    /** Indexed by candidate. */
    std::vector<DryRunSiteResult> _results;
    /** Scratch: values of the slice being evaluated. */
    std::vector<std::uint64_t> _values;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_DRY_RUN_H
