#include "profile/profiler.h"

#include <algorithm>

namespace amnesiac {

double
SiteProfile::prLevel(MemLevel level) const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(byLevel[static_cast<std::size_t>(level)]) /
           static_cast<double>(count);
}

const CandidateTree *
SiteProfile::topTree() const
{
    const CandidateTree *best = nullptr;
    for (const auto &tree : trees)
        if (!best || tree.count > best->count)
            best = &tree;
    return best;
}

double
SiteProfile::stability() const
{
    const CandidateTree *best = topTree();
    if (!best || count == 0)
        return 0.0;
    return static_cast<double>(best->count) / static_cast<double>(count);
}

double
SiteProfile::valueLocalityPercent() const
{
    if (count < 2)
        return 0.0;
    return 100.0 * static_cast<double>(repeats) /
           static_cast<double>(count - 1);
}

OperandLiveStat
SiteProfile::operandLive(std::uint32_t node_pc, int k) const
{
    std::size_t i = 2 * std::size_t{node_pc} + static_cast<std::size_t>(k);
    return i < liveStats.size() ? liveStats[i] : OperandLiveStat{};
}

Profiler::Profiler(const ProfilerConfig &config) : _config(config) {}

void
Profiler::mirrorExec(DepTracker &tracker, const ProfilerConfig &config,
                     const ExecutionEngine &m, std::uint32_t pc,
                     const Instruction &instr)
{
    if (!isSliceable(instr.op))
        return;
    if (pc < config.opaqueProduction.size() && config.opaqueProduction[pc]) {
        tracker.onOpaque(instr.rd);
        return;
    }
    // Mirror the execution so the tracker can link producers. The
    // observer fires pre-execution, so source registers still hold
    // the instruction's inputs.
    std::uint64_t result = Machine::evalAlu(
        instr.op, m.reg(instr.rs1 < kNumRegs ? instr.rs1 : 0),
        m.reg(instr.rs2 < kNumRegs ? instr.rs2 : 0), instr.imm);
    tracker.onAlu(pc, instr, result);
}

void
Profiler::onExec(const ExecutionEngine &m, std::uint32_t pc,
                 const Instruction &instr)
{
    if (_execCounts.empty()) {  // first callback: size the per-pc tables
        _execCounts.assign(m.program().code.size(), 0);
        _sites.resize(m.program().code.size());
    }
    ++_execCounts[pc];
    mirrorExec(_tracker, _config, m, pc, instr);
}

void
Profiler::onLoad(const ExecutionEngine &m, std::uint32_t pc, std::uint64_t addr,
                 std::uint64_t value, MemLevel serviced)
{
    SiteProfile &site = _sites[pc];
    site.pc = pc;
    if (site.count > 0 && site.lastValue == value)
        ++site.repeats;
    site.lastValue = value;
    ++site.count;
    ++site.byLevel[static_cast<std::size_t>(serviced)];

    const Instruction &instr = m.program().code[pc];
    _tracker.onLoad(pc, instr, addr, value);

    // The tracker update above must still run (later loads of the same
    // word depend on it); only the per-instance tree walk is skippable.
    if (pc < _config.skipSiteAnalysis.size() &&
        _config.skipSiteAnalysis[pc])
        return;

    NodeId root = _tracker.regProducer(instr.rd);
    if (root == kNoNode ||
        _tracker.node(root).kind != ProducerNode::Kind::Alu) {
        ++site.untracked;
        return;
    }
    analyzeTree(m, site, root);
}

void
Profiler::onStore(const ExecutionEngine &m, std::uint32_t pc, std::uint64_t addr,
                  std::uint64_t value, MemLevel serviced)
{
    (void)value;
    (void)serviced;
    _tracker.onStore(m.program().code[pc], addr);
}

namespace {

constexpr std::uint64_t kSigPrime = 0x100000001B3ull;
/** Signature of a subtree cut by the depth cap or the node budget. */
constexpr std::uint64_t kSigCut = 0x22ull;

std::uint64_t
sigMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h * kSigPrime;
}

}  // namespace

void
Profiler::analyzeTree(const ExecutionEngine &m, SiteProfile &site,
                      NodeId root)
{
    if (site.liveStats.empty())
        site.liveStats.resize(2 * m.program().code.size());
    int sig_nodes_left = _config.maxTreeNodes;
    int live_nodes_left = _config.maxTreeNodes;
    std::uint64_t sig = walkTree(m, site, root, _config.maxTreeDepth,
                                 sig_nodes_left, live_nodes_left);
    auto it = std::find_if(site.trees.begin(), site.trees.end(),
                           [sig](const CandidateTree &t) {
                               return t.signature == sig;
                           });
    if (it != site.trees.end()) {
        ++it->count;
    } else if (site.trees.size() < _config.maxDistinctTrees) {
        _tracker.pin(root);  // keep the representative alive in the arena
        site.trees.push_back({sig, 1, root});
    } else {
        site.treeOverflow = true;
    }
}

/**
 * One walk over an instance's tree that yields both the live-cut
 * signature (returned) and the site's live-operand statistics.
 *
 * The signature is the structural shape of the slice the builder would
 * construct at this instant: recursion stops at operands whose register
 * currently holds the produced input value (a Live cut) — otherwise
 * chains through loop-carried state would make every dynamic tree look
 * different even though the buildable slice is identical. The live
 * statistics count, per (production site, operand), how often that cut
 * held; nothing below a cut can end up in the slice on this instance,
 * so they stop there too.
 *
 * The two share the depth cap but keep separate node budgets: the
 * signature charges every node it enters, the statistics only ALU
 * nodes. Both visit nodes in the same order, so the signature's budget
 * never outlasts the statistics' one; past it the walk continues for the
 * statistics alone and the signature sees the budget marker.
 */
std::uint64_t
Profiler::walkTree(const ExecutionEngine &m, SiteProfile &site, NodeId id,
                   int depth_left, int &sig_nodes_left, int &live_nodes_left)
{
    if (depth_left == 0)
        return kSigCut;
    const ProducerNode &node = _tracker.node(id);
    const bool sig = sig_nodes_left > 0;
    std::uint64_t h = kSigCut;
    if (sig) {
        --sig_nodes_left;
        h = 0xCBF29CE484222325ull;
        h = sigMix(h, static_cast<std::uint64_t>(node.kind));
        h = sigMix(h, node.pc);
        h = sigMix(h, static_cast<std::uint64_t>(node.op));
    }
    // Only ALU nodes carry operands (fanIn() is 0 for the others).
    if (node.kind != ProducerNode::Kind::Alu || live_nodes_left <= 0)
        return h;
    --live_nodes_left;

    const int fan_in = node.fanIn();
    for (int k = 0; k < fan_in; ++k) {
        const Reg read_reg = k == 0 ? node.rs1 : node.rs2;
        const NodeId producer = k == 0 ? node.in1 : node.in2;
        // Live sourcing is legal for this instance iff the register the
        // replica would read holds the value the production consumed —
        // whether because it was never overwritten or because the code
        // re-produced the same value (e.g. an index recomputed by the
        // consumer loop). Untracked origins count as live only while
        // the register is still untouched.
        const bool live = producer != kNoNode
            ? m.reg(read_reg) == _tracker.node(producer).value
            : _tracker.regProducer(read_reg) == kNoNode;
        OperandLiveStat &stat =
            site.liveStats[2 * std::size_t{node.pc} +
                           static_cast<std::size_t>(k)];
        ++stat.seen;
        std::uint64_t sub;
        if (live) {
            ++stat.matches;
            sub = 0x33ull;  // Live cut
        } else if (producer == kNoNode) {
            sub = 0x11ull;  // untracked origin, register overwritten
        } else {
            sub = walkTree(m, site, producer, depth_left - 1,
                           sig_nodes_left, live_nodes_left);
        }
        if (sig)
            h = sigMix(h, sub);
    }
    return h;
}

const SiteProfile *
Profiler::site(std::uint32_t pc) const
{
    return pc < _sites.size() && _sites[pc].count > 0 ? &_sites[pc]
                                                      : nullptr;
}

std::vector<const SiteProfile *>
Profiler::sites() const
{
    std::vector<const SiteProfile *> result;
    for (const SiteProfile &site : _sites)
        if (site.count > 0)
            result.push_back(&site);
    return result;
}

std::uint64_t
Profiler::execCount(std::uint32_t pc) const
{
    return pc < _execCounts.size() ? _execCounts[pc] : 0;
}

}  // namespace amnesiac
