/**
 * @file
 * Dynamic producer-consumer dependence tracking (§2.1, §4).
 *
 * While a program runs under classic execution, the tracker mirrors
 * dataflow: every value-producing instruction creates an immutable
 * ProducerNode linked to the nodes of its input operands; stores
 * propagate the stored value's node into memory; loads pull it back out.
 * At any load, the node of the loaded value is the root of the dynamic
 * backward slice — exactly the RSlice(v) candidate of §2.1.
 *
 * Nodes live in an index-based arena owned by the tracker: links are
 * 32-bit NodeIds instead of shared_ptrs, and dead subgraphs are recycled
 * through a free list, so steady-state profiling performs no heap
 * allocation per dynamic instruction (the arena reaches a fixed point
 * once every static site's chain shapes have been seen).
 */

#ifndef AMNESIAC_PROFILE_DEP_TRACKER_H
#define AMNESIAC_PROFILE_DEP_TRACKER_H

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/instruction.h"
#include "util/logging.h"

namespace amnesiac {

/** Arena index of a ProducerNode (see DepTracker). */
using NodeId = std::uint32_t;

/** "No producer" — the untracked origin (initial register state). */
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/** One dynamic value production. Immutable once created. */
struct ProducerNode
{
    /** What kind of production this is. */
    enum class Kind : std::uint8_t {
        /// A sliceable (register-to-register) instruction.
        Alu,
        /// A load whose value had no tracked producer: a read-only
        /// program input (§2.2 case i).
        InputLoad,
        /// Depth-cap stub: stands in for a production whose own inputs
        /// were truncated. Value and site are preserved (so Live cuts
        /// and signatures above it behave exactly like the real node);
        /// it cannot be expanded into a slice.
        Truncated,
    };

    Kind kind = Kind::Alu;
    std::uint32_t pc = 0;       ///< static site of the production
    Opcode op = Opcode::Nop;
    Reg rd = 0;
    Reg rs1 = 0;
    Reg rs2 = 0;
    std::int64_t imm = 0;
    /** Producers of the input operands; kNoNode = untracked origin
     * (initial register state). */
    NodeId in1 = kNoNode;
    NodeId in2 = kNoNode;
    /** Global dynamic sequence number (monotonic per production). */
    std::uint64_t seq = 0;
    /** Longest producer chain below (and including) this node. Chains
     * are cut at kMaxChainDepth — far beyond any buildable slice — so
     * node graphs stay bounded and reclamation never walks deeply. */
    std::uint16_t depth = 1;
    /** The produced value (diagnostics and dry-run seeding). */
    std::uint64_t value = 0;
    /** InputLoad only: the address the input was loaded from. */
    std::uint64_t addr = 0;

    /** Number of producer links this node carries (0..2). */
    int
    fanIn() const
    {
        if (kind != Kind::Alu)
            return 0;
        return numSources(op);
    }
};

/** Producer-chain depth limit (see ProducerNode::depth). */
inline constexpr std::uint16_t kMaxChainDepth = 192;

/** Tighter limit for self-recurrent chains (a node consuming a prior
 * production of its own static site, e.g. loop counters, accumulators,
 * LCG state): such chains can never be usefully recomputed beyond
 * trivial depth — their slice is their entire history. */
inline constexpr std::uint16_t kSelfChainDepth = 8;

/**
 * Tracks producers for every architectural register and memory word
 * during one classic run. Fed by the Profiler observer.
 *
 * Node lifetime is reference-counted over the arena: registers, memory
 * words, parent links, and explicit pin() calls hold references; a node
 * whose last reference drops is recycled (its slot returns to the free
 * list, cascading iteratively through its children). The tracker — and
 * therefore every NodeId it handed out — is confined to one thread.
 */
class DepTracker
{
  public:
    DepTracker() { _regs.fill(kNoNode); }
    /** NodeIds index this tracker's arena, so it is never copied; a
     * move hands the arena over intact. */
    DepTracker(const DepTracker &) = delete;
    DepTracker &operator=(const DepTracker &) = delete;
    DepTracker(DepTracker &&) = default;
    DepTracker &operator=(DepTracker &&) = default;

    /** Record execution of a sliceable instruction. */
    void onAlu(std::uint32_t pc, const Instruction &instr,
               std::uint64_t result);

    /** Record a load: either attaches the stored value's producer to the
     * destination register or creates an InputLoad node. */
    void onLoad(std::uint32_t pc, const Instruction &instr,
                std::uint64_t addr, std::uint64_t value);

    /**
     * Record a production the static pruner proved can never appear in
     * a surviving slice tree: the destination register is pointed at a
     * shared opaque sentinel instead of a real linked node. No operand
     * evaluation, no per-instance allocation, and no sequence-number
     * bump — the relative seq order of real productions is untouched,
     * so the trees the builder sees are byte-for-byte the same as in an
     * unpruned run (the sentinel, like an untracked origin, only ever
     * flows into loads whose analysis is itself skipped).
     */
    void onOpaque(Reg rd);

    /** Record a store: memory inherits the stored value's producer. */
    void onStore(const Instruction &instr, std::uint64_t addr);

    /** Producer of the current value of register r (may be kNoNode). */
    NodeId regProducer(Reg r) const
    {
        AMNESIAC_ASSERT(r < kNumRegs, "register index out of range");
        return _regs[r];
    }

    /** Producer of the value at a memory word (kNoNode if untracked). */
    NodeId memProducer(std::uint64_t addr) const;

    /** The node behind an id. Valid until its last reference drops. */
    const ProducerNode &node(NodeId id) const
    {
        AMNESIAC_ASSERT(id < _nodes.size(), "bad node id");
        return _nodes[id];
    }

    /**
     * Take an extra reference on a node, keeping it (and everything
     * below it) alive past register/memory overwrites — used for
     * representative trees held across the whole profiling run. Pins
     * are never released individually; they die with the tracker.
     */
    void pin(NodeId id)
    {
        if (id != kNoNode)
            ref(id);
    }

    /** Dynamic productions so far (sequence counter). */
    std::uint64_t productions() const { return _seq; }

    /** Arena capacity in nodes (monitoring / allocation tests). */
    std::size_t arenaSize() const { return _nodes.size(); }

    /** Currently recycled slots (monitoring / allocation tests). */
    std::size_t freeCount() const { return _free.size(); }

  private:
    /** Fresh slot with refcount 1 (free list first, then growth). */
    NodeId alloc();

    void ref(NodeId id)
    {
        AMNESIAC_ASSERT(id < _refs.size() && _refs[id] > 0, "bad ref");
        ++_refs[id];
    }

    /** Drop one reference; reclaims the node (and, iteratively, any
     * children this was the last holder of) when it hits zero. */
    void unref(NodeId id);

    /** Point register r at `id` (ownership transferred from caller),
     * releasing whatever the register held before. */
    void setReg(Reg r, NodeId id)
    {
        NodeId old = _regs[r];
        _regs[r] = id;
        if (old != kNoNode)
            unref(old);
    }

    std::vector<ProducerNode> _nodes;
    std::vector<std::uint32_t> _refs;  ///< parallel to _nodes
    std::vector<NodeId> _free;         ///< recycled slots
    std::vector<NodeId> _reclaim;      ///< scratch for iterative unref
    std::array<NodeId, kNumRegs> _regs;
    std::unordered_map<std::uint64_t, NodeId> _mem;  ///< word addr -> node
    std::uint64_t _seq = 0;
    /** Shared sentinel for onOpaque (lazily allocated; the tracker's
     * own reference keeps it alive for the tracker's lifetime). */
    NodeId _opaque = kNoNode;
};

/**
 * Structural signature of a backward slice: two dynamic trees get the
 * same signature iff they replicate the same static instructions in the
 * same shape (used to measure per-site slice stability, §3.1.1).
 * Depth and node count are capped; oversize trees get a sentinel mixed
 * into the hash so they never collide with their truncation.
 */
std::uint64_t treeSignature(const DepTracker &tracker, NodeId root,
                            int max_depth = 12, int max_nodes = 256);

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_DEP_TRACKER_H
