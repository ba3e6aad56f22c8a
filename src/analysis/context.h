/**
 * @file
 * Shared analysis context built once per analyzed program and consumed
 * by every pass: the main-code control-flow graph and its reachability,
 * the slice-region block table (with per-block recomputed statistics
 * and a dataflow max-live bound), and the REC checkpoint index. Passes
 * stay small because everything positional lives here.
 */

#ifndef AMNESIAC_ANALYSIS_CONTEXT_H
#define AMNESIAC_ANALYSIS_CONTEXT_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/program.h"

namespace amnesiac {

/** One slice block of the slice region, with recomputed statistics. */
struct SliceBlock
{
    /** The compiler-recorded metadata (copied for random access). */
    RSliceMeta meta;
    /** First body instruction (== meta.entry). */
    std::uint32_t entry = 0;
    /** One past the last body instruction; code[end] should be RTN. */
    std::uint32_t end = 0;
    /** True when entry/length point outside the program (the body was
     * clamped; integrity diagnostics fire elsewhere). */
    bool truncated = false;
    /** Body pcs with at least one Hist-sourced operand (the leaves a
     * REC must checkpoint; each becomes one Hist entry at runtime). */
    std::vector<std::uint32_t> histOperandPcs;
    // --- statistics recomputed from the body (vs meta.* claims) ---
    std::uint32_t leafCount = 0;
    std::uint32_t histLeafCount = 0;
    std::uint32_t histOperandCount = 0;
    /**
     * Dataflow bound: the maximum number of simultaneously *live*
     * slice values (an SFile entry is dead once its register name is
     * re-bound or never read again). The shipped SFile allocates one
     * entry per executed instruction instead, so its worst case is the
     * body length; maxLive documents what a liveness-driven allocator
     * would need.
     */
    std::uint32_t maxLive = 0;
};

/**
 * Immutable per-program context shared by all passes. Requires
 * `program.codeEnd <= program.code.size()` (the structure pass rejects
 * programs violating that before a context is built).
 */
class AnalysisContext
{
  public:
    explicit AnalysisContext(const Program &program);

    const Program &program() const { return *_program; }

    /** Slice blocks, in metadata order. */
    const std::vector<SliceBlock> &blocks() const { return _blocks; }

    /** REC checkpoints per leaf address: leafAddr -> main-code pcs. */
    const std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> &
    recsByLeaf() const { return _recsByLeaf; }

    /** Main-code pcs of every RCMP, ascending. */
    const std::vector<std::uint32_t> &rcmpPcs() const { return _rcmpPcs; }

    /** Main-code pcs of every REC, ascending. */
    const std::vector<std::uint32_t> &recPcs() const { return _recPcs; }

    /** Static successors of a main-code instruction (CFG edges).
     * Out-of-range targets are included as-is; callers range-check. */
    std::vector<std::uint32_t> mainSuccessors(std::uint32_t pc) const;

    /** True if the main-code instruction is reachable from pc 0. */
    bool mainReachable(std::uint32_t pc) const;

  private:
    void buildBlocks();
    void buildRecIndex();
    void buildReachability();

    const Program *_program;
    std::vector<SliceBlock> _blocks;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        _recsByLeaf;
    std::vector<std::uint32_t> _rcmpPcs;
    std::vector<std::uint32_t> _recPcs;
    std::vector<bool> _reachable;
};

}  // namespace amnesiac

#endif  // AMNESIAC_ANALYSIS_CONTEXT_H
