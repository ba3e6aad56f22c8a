#include "analysis/context.h"

#include <algorithm>

#include "util/logging.h"

namespace amnesiac {

namespace {

/** True if operand k of a slice instruction reads the given source. */
bool
readsSource(const Instruction &i, int k, OperandSource src)
{
    if (numSources(i.op) <= k)
        return false;
    return (k == 0 ? i.src1 : i.src2) == src;
}

}  // namespace

AnalysisContext::AnalysisContext(const Program &program)
    : _program(&program)
{
    AMNESIAC_ASSERT(program.codeEnd <= program.code.size(),
                    "AnalysisContext requires codeEnd <= code.size()");
    buildBlocks();
    buildRecIndex();
    buildReachability();
}

void
AnalysisContext::buildBlocks()
{
    const Program &p = *_program;
    std::uint32_t size = static_cast<std::uint32_t>(p.code.size());
    for (const RSliceMeta &meta : p.slices) {
        SliceBlock block;
        block.meta = meta;
        block.entry = std::min(meta.entry, size);
        std::uint32_t want_end = meta.entry + meta.length;
        block.end = std::min(want_end, size);
        block.truncated = meta.entry > size || want_end > size;

        // Recompute the §3.4 statistics from the body itself so the
        // integrity pass can cross-check the metadata claims.
        std::vector<std::int32_t> last_use(block.end - block.entry, -1);
        std::vector<std::int32_t> producer(kNumRegs, -1);
        for (std::uint32_t pc = block.entry; pc < block.end; ++pc) {
            const Instruction &i = p.code[pc];
            std::int32_t idx = static_cast<std::int32_t>(pc - block.entry);
            bool any_slice = false;
            bool any_hist = false;
            for (int k = 0; k < 2; ++k) {
                if (readsSource(i, k, OperandSource::Slice)) {
                    any_slice = true;
                    Reg r = k == 0 ? i.rs1 : i.rs2;
                    if (r < kNumRegs && producer[r] >= 0)
                        last_use[producer[r]] = idx;
                }
                if (readsSource(i, k, OperandSource::Hist)) {
                    any_hist = true;
                    ++block.histOperandCount;
                }
            }
            if (!any_slice)
                ++block.leafCount;
            if (any_hist) {
                ++block.histLeafCount;
                block.histOperandPcs.push_back(pc);
            }
            if (hasDest(i.op) && i.rd < kNumRegs)
                producer[i.rd] = idx;
        }

        // Dataflow max-live over the body: value i is live from its
        // production to its last Slice-sourced read.
        std::uint32_t live = 0;
        block.maxLive = 0;
        std::vector<std::uint32_t> dying(block.end - block.entry + 1, 0);
        for (std::uint32_t idx = 0; idx < last_use.size(); ++idx) {
            ++live;
            block.maxLive = std::max(block.maxLive, live);
            std::uint32_t death =
                last_use[idx] < 0 ? idx
                                  : static_cast<std::uint32_t>(last_use[idx]);
            ++dying[death];
            live -= dying[idx];  // values whose last use is this index
        }
        _blocks.push_back(std::move(block));
    }
}

void
AnalysisContext::buildRecIndex()
{
    const Program &p = *_program;
    for (std::uint32_t pc = 0; pc < p.codeEnd; ++pc) {
        switch (p.code[pc].op) {
          case Opcode::Rec:
            _recPcs.push_back(pc);
            _recsByLeaf[p.code[pc].leafAddr].push_back(pc);
            break;
          case Opcode::Rcmp:
            _rcmpPcs.push_back(pc);
            break;
          default:
            break;
        }
    }
}

std::vector<std::uint32_t>
AnalysisContext::mainSuccessors(std::uint32_t pc) const
{
    // One successor model for every consumer: RCMP's slice traversal is
    // an internal detour (control always resumes at pc+1), REC falls
    // through, branches fan out. The dataflow engine's MainCfg uses the
    // same isa-level helper, so the two CFGs cannot drift.
    std::uint32_t out[2];
    std::uint32_t n = instrSuccessors(_program->code[pc], pc, out);
    return {out, out + n};
}

void
AnalysisContext::buildReachability()
{
    const Program &p = *_program;
    _reachable.assign(p.codeEnd, false);
    if (p.codeEnd == 0)
        return;
    std::vector<std::uint32_t> work{0};
    _reachable[0] = true;
    while (!work.empty()) {
        std::uint32_t pc = work.back();
        work.pop_back();
        for (std::uint32_t succ : mainSuccessors(pc)) {
            if (succ < p.codeEnd && !_reachable[succ]) {
                _reachable[succ] = true;
                work.push_back(succ);
            }
        }
    }
}

bool
AnalysisContext::mainReachable(std::uint32_t pc) const
{
    return pc < _reachable.size() && _reachable[pc];
}

}  // namespace amnesiac
