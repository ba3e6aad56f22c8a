/**
 * @file
 * Reusable fixpoint dataflow engine over the main-code CFG.
 *
 * The engine separates the iteration strategy from the lattice: a
 * domain supplies bottom/entry values, join, a transfer function, and
 * (optionally) widening and edge refinement; the engine supplies a
 * deterministic reverse-postorder sweep schedule with delayed widening
 * at loop heads followed by descending narrowing sweeps. Both the
 * AMN7xx/AMN8xx analysis passes and the compiler's static candidate
 * pruner instantiate it (see domains.h for the shipped lattices).
 *
 * Forward domain concept:
 *
 *   struct Domain {
 *     using Value = ...;
 *     Value bottom() const;                    // unreachable
 *     Value entry() const;                     // state at pc 0
 *     bool join(Value &into, const Value &from) const;  // true if grown
 *     Value transfer(std::uint32_t pc, const Instruction &instr,
 *                    const Value &in) const;
 *     // optional — called after join once the ascending phase exceeds
 *     // the widen delay; must ratchet strictly up a finite chain:
 *     void widen(Value &into, const Value &prev) const;
 *     // optional — refine the out-state along successor edge k (the
 *     // index instrSuccessors assigned); returning false marks the
 *     // edge infeasible:
 *     bool refineEdge(std::uint32_t pc, const Instruction &instr,
 *                     std::uint32_t k, Value &v) const;
 *   };
 *
 * Transfer over bottom must yield bottom and join-with-bottom must be a
 * no-op, so unreachable code needs no special casing in the engine.
 */

#ifndef AMNESIAC_ANALYSIS_DATAFLOW_H
#define AMNESIAC_ANALYSIS_DATAFLOW_H

#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa/program.h"

namespace amnesiac {

/**
 * Main-code CFG of a program: in-range successor/predecessor adjacency,
 * reverse postorder from pc 0, and loop-head marks (targets of
 * retreating edges in RPO numbering). Built once and shared by every
 * solver instantiation. Out-of-range successors (broken branch targets;
 * the integrity pass diagnoses them) are dropped from the edge set.
 */
class MainCfg
{
  public:
    explicit MainCfg(const Program &program);

    /** Number of main-code instructions (codeEnd, clamped). */
    std::uint32_t size() const { return _size; }

    /** In-range successors of pc with their edge indices as assigned by
     * instrSuccessors (so refinement can tell taken from fall-through).
     * @return count written to out_pc/out_edge (0..2) */
    std::uint32_t successors(std::uint32_t pc, std::uint32_t out_pc[2],
                             std::uint32_t out_edge[2]) const;

    /** Predecessor edges of pc: (pred pc, edge index at the pred). */
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &
    preds(std::uint32_t pc) const { return _preds[pc]; }

    /** Pcs reachable from 0, in reverse postorder. */
    const std::vector<std::uint32_t> &rpo() const { return _rpo; }

    /** Position of pc in the RPO sequence (UINT32_MAX if unreachable). */
    std::uint32_t rpoIndex(std::uint32_t pc) const { return _rpoIndex[pc]; }

    /** True if pc is reachable from pc 0. */
    bool reachable(std::uint32_t pc) const
    {
        return pc < _size && _rpoIndex[pc] != kUnvisited;
    }

    /** True if pc is the target of a retreating edge (loop head). */
    bool loopHead(std::uint32_t pc) const { return _loopHead[pc]; }

    const Program &program() const { return *_program; }

  private:
    static constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;

    const Program *_program;
    std::uint32_t _size = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> _predsEmpty;
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> _preds;
    std::vector<std::uint32_t> _rpo;
    std::vector<std::uint32_t> _rpoIndex;
    std::vector<bool> _loopHead;
};

namespace dataflow_detail {

/** Ascending sweeps below this count join without widening; beyond it,
 * loop heads widen; beyond twice it, every join widens (termination
 * backstop for pathological CFGs). */
inline constexpr std::uint32_t kWidenDelay = 4;

/** Descending (narrowing) sweeps after the ascending phase converges. */
inline constexpr std::uint32_t kNarrowSweeps = 2;

/** Hard cap on ascending sweeps; with widening engaged every value
 * climbs a finite chain, so this is unreachable in practice. */
inline constexpr std::uint32_t kMaxSweeps = 1000;

template <typename Domain, typename Value>
bool
refineOut(const Domain &domain, std::uint32_t pc, const Instruction &instr,
          std::uint32_t edge, Value &v)
{
    if constexpr (requires {
                      {
                          domain.refineEdge(pc, instr, edge, v)
                      } -> std::same_as<bool>;
                  }) {
        return domain.refineEdge(pc, instr, edge, v);
    } else {
        (void)domain;
        (void)pc;
        (void)instr;
        (void)edge;
        (void)v;
        return true;
    }
}

}  // namespace dataflow_detail

/**
 * Forward fixpoint: returns the in-state of every main-code pc
 * (bottom for code unreachable from pc 0).
 *
 * Ascending phase: push-style joins in RPO, widening loop heads after
 * a delay. Descending phase: pull-style recomputation sweeps that
 * replace each in-state with the join over its (refined) incoming
 * edges — sound because every operand stays above the least fixpoint
 * and the transfer is monotone, and it recovers the precision the
 * widening gave away (e.g. exact loop-counter ranges under a bounded
 * back-edge guard).
 */
template <typename Domain>
std::vector<typename Domain::Value>
solveForward(const MainCfg &cfg, const Domain &domain)
{
    using Value = typename Domain::Value;
    namespace detail = dataflow_detail;

    const Program &p = cfg.program();
    std::vector<Value> states(cfg.size(), domain.bottom());
    if (cfg.size() == 0)
        return states;
    domain.join(states[0], domain.entry());

    for (std::uint32_t sweep = 0; sweep < detail::kMaxSweeps; ++sweep) {
        bool changed = false;
        for (std::uint32_t pc : cfg.rpo()) {
            Value out = domain.transfer(pc, p.code[pc], states[pc]);
            std::uint32_t succ[2];
            std::uint32_t edge[2];
            std::uint32_t n = cfg.successors(pc, succ, edge);
            for (std::uint32_t k = 0; k < n; ++k) {
                Value v = out;
                if (!detail::refineOut(domain, pc, p.code[pc], edge[k], v))
                    continue;
                bool widen_here = sweep >= 2 * detail::kWidenDelay ||
                    (sweep >= detail::kWidenDelay && cfg.loopHead(succ[k]));
                if constexpr (requires(Value &a, const Value &b) {
                                  domain.widen(a, b);
                              }) {
                    if (widen_here) {
                        Value prev = states[succ[k]];
                        if (domain.join(states[succ[k]], v)) {
                            domain.widen(states[succ[k]], prev);
                            changed = true;
                        }
                        continue;
                    }
                } else {
                    (void)widen_here;
                }
                if (domain.join(states[succ[k]], v))
                    changed = true;
            }
        }
        if (!changed)
            break;
    }

    for (std::uint32_t sweep = 0; sweep < detail::kNarrowSweeps; ++sweep) {
        for (std::uint32_t pc : cfg.rpo()) {
            Value acc = pc == 0 ? domain.entry() : domain.bottom();
            for (const auto &[pred, edge] : cfg.preds(pc)) {
                Value v = domain.transfer(pred, p.code[pred], states[pred]);
                if (!detail::refineOut(domain, pred, p.code[pred], edge, v))
                    continue;
                domain.join(acc, v);
            }
            states[pc] = std::move(acc);
        }
    }
    return states;
}

}  // namespace amnesiac

#endif  // AMNESIAC_ANALYSIS_DATAFLOW_H
