#include "core/dry_run.h"

#include <algorithm>

#include "util/logging.h"

namespace amnesiac {

DryRunValidator::DryRunValidator(const std::vector<RSlice> &candidates)
    : _candidates(&candidates), _results(candidates.size())
{
    std::size_t slots = 0;
    std::size_t longest = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        const RSlice &slice = candidates[c];
        if (slice.loadPc >= _byLoadPc.size())
            _byLoadPc.resize(std::size_t{slice.loadPc} + 1);
        _byLoadPc[slice.loadPc].push_back(c);
        for (const auto &[orig_pc, instr_idx] : slice.capturePoints()) {
            if (orig_pc >= _captures.size())
                _captures.resize(std::size_t{orig_pc} + 1);
            _captures[orig_pc].emplace_back(c, instr_idx);
        }
        _histBase.push_back(slots);
        slots += slice.instrs.size();
        longest = std::max(longest, slice.instrs.size());
    }
    _shadowHist.resize(slots);
    _values.reserve(longest);
}

void
DryRunValidator::onExec(const ExecutionEngine &m, std::uint32_t pc,
                        const Instruction &instr)
{
    (void)instr;
    if (pc >= _captures.size())
        return;
    // REC-before semantics: snapshot the replica's source registers as
    // they are when the original instruction is about to execute.
    for (const auto &[cand, instr_idx] : _captures[pc]) {
        const SliceInstr &leaf = (*_candidates)[cand].instrs[instr_idx];
        ShadowEntry &entry = _shadowHist[_histBase[cand] + instr_idx];
        entry.values = {};
        if (leaf.numOps >= 1)
            entry.values[0] = m.reg(leaf.ops[0].reg);
        if (leaf.numOps >= 2)
            entry.values[1] = m.reg(leaf.ops[1].reg);
        entry.written = true;
    }
}

void
DryRunValidator::onLoad(const ExecutionEngine &m, std::uint32_t pc,
                        std::uint64_t addr, std::uint64_t value,
                        MemLevel serviced)
{
    (void)addr;
    (void)serviced;
    if (pc >= _byLoadPc.size())
        return;
    for (std::size_t cand : _byLoadPc[pc])
        evaluate(m, cand, value);
}

void
DryRunValidator::evaluate(const ExecutionEngine &m, std::size_t cand,
                          std::uint64_t loaded)
{
    const RSlice &slice = (*_candidates)[cand];
    DryRunSiteResult &result = _results[cand];
    ++result.evaluated;

    _values.assign(slice.instrs.size(), 0);
    for (std::size_t i = 0; i < slice.instrs.size(); ++i) {
        const SliceInstr &instr = slice.instrs[i];
        std::uint64_t in[2] = {0, 0};
        for (int k = 0; k < instr.numOps; ++k) {
            const SliceOperand &op = instr.ops[k];
            switch (op.source) {
              case OperandSource::Slice:
                in[k] = _values[static_cast<std::size_t>(op.producerIndex)];
                break;
              case OperandSource::Live:
                in[k] = m.reg(op.reg);
                break;
              case OperandSource::Hist: {
                const ShadowEntry &entry = _shadowHist[_histBase[cand] + i];
                if (!entry.written) {
                    ++result.histMisses;
                    return;  // unmatched instance
                }
                in[k] = entry.values[static_cast<std::size_t>(k)];
                break;
              }
            }
        }
        _values[i] = Machine::evalAlu(instr.op, in[0], in[1], instr.imm);
    }
    if (_values.back() == loaded)
        ++result.matched;
}

const DryRunSiteResult &
DryRunValidator::result(std::size_t candidate) const
{
    AMNESIAC_ASSERT(candidate < _results.size(), "no such candidate");
    return _results[candidate];
}

}  // namespace amnesiac
