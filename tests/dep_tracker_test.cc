/**
 * @file
 * Tests for the dynamic dependence tracker: producer linking through
 * registers and memory, input-load boundaries, tree signatures, depth
 * capping, and arena recycling.
 */

#include <gtest/gtest.h>

#include "profile/dep_tracker.h"

namespace amnesiac {
namespace {

Instruction
alu(Opcode op, Reg rd, Reg rs1, Reg rs2, std::int64_t imm = 0)
{
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    i.imm = imm;
    return i;
}

TEST(DepTracker, LinksProducersThroughRegisters)
{
    DepTracker t;
    t.onAlu(10, alu(Opcode::Li, 1, 0, 0, 5), 5);
    t.onAlu(11, alu(Opcode::Li, 2, 0, 0, 7), 7);
    t.onAlu(12, alu(Opcode::Add, 3, 1, 2), 12);
    NodeId root = t.regProducer(3);
    ASSERT_NE(root, kNoNode);
    EXPECT_EQ(t.node(root).pc, 12u);
    EXPECT_EQ(t.node(root).value, 12u);
    ASSERT_NE(t.node(root).in1, kNoNode);
    ASSERT_NE(t.node(root).in2, kNoNode);
    EXPECT_EQ(t.node(t.node(root).in1).pc, 10u);
    EXPECT_EQ(t.node(t.node(root).in2).pc, 11u);
    EXPECT_EQ(t.node(root).depth, 2);
}

TEST(DepTracker, StoreAndLoadPropagateProduction)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 2, 0, 0, 9), 9);
    Instruction st;
    st.op = Opcode::St;
    st.rs1 = 1;
    st.rs2 = 2;
    t.onStore(st, 64);
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 5;
    t.onLoad(3, ld, 64, 9);
    // The loaded register holds the very same production.
    EXPECT_EQ(t.regProducer(5), t.memProducer(64));
    EXPECT_EQ(t.node(t.regProducer(5)).pc, 1u);
}

TEST(DepTracker, UntrackedLoadBecomesInputLeaf)
{
    DepTracker t;
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 4;
    t.onLoad(7, ld, 128, 42);
    NodeId id = t.regProducer(4);
    ASSERT_NE(id, kNoNode);
    const ProducerNode &node = t.node(id);
    EXPECT_EQ(node.kind, ProducerNode::Kind::InputLoad);
    EXPECT_EQ(node.value, 42u);
    EXPECT_EQ(node.addr, 128u);
    EXPECT_EQ(node.fanIn(), 0);
}

TEST(DepTracker, SignatureStableAcrossEquivalentTrees)
{
    auto build = [](std::uint64_t a, std::uint64_t b) {
        DepTracker t;
        t.onAlu(10, alu(Opcode::Li, 1, 0, 0,
                        static_cast<std::int64_t>(a)), a);
        t.onAlu(11, alu(Opcode::Li, 2, 0, 0,
                        static_cast<std::int64_t>(b)), b);
        t.onAlu(12, alu(Opcode::Mul, 3, 1, 2), a * b);
        return treeSignature(t, t.regProducer(3));
    };
    // Same static shape, different values: same signature.
    EXPECT_EQ(build(3, 4), build(100, 200));
}

TEST(DepTracker, SignatureDistinguishesShapes)
{
    DepTracker t;
    t.onAlu(10, alu(Opcode::Li, 1, 0, 0, 5), 5);
    t.onAlu(12, alu(Opcode::Add, 3, 1, 1), 10);
    std::uint64_t sig_add = treeSignature(t, t.regProducer(3));
    t.onAlu(13, alu(Opcode::Xor, 3, 1, 1), 0);
    std::uint64_t sig_xor = treeSignature(t, t.regProducer(3));
    EXPECT_NE(sig_add, sig_xor);
}

TEST(DepTracker, SelfRecurrentChainsAreStubbed)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 0), 0);
    // A loop counter: add r1, r1, r1 executed many times at one pc.
    for (int i = 0; i < 100; ++i)
        t.onAlu(2, alu(Opcode::Add, 1, 1, 1), i + 1);
    NodeId id = t.regProducer(1);
    ASSERT_NE(id, kNoNode);
    // Depth stays bounded by the self-chain cap, far below 100.
    EXPECT_LE(t.node(id).depth, kSelfChainDepth + 1);
    // Walking to the cut must find a value-preserving stub.
    NodeId walk = id;
    while (t.node(walk).in1 != kNoNode &&
           t.node(t.node(walk).in1).kind == ProducerNode::Kind::Alu)
        walk = t.node(walk).in1;
    NodeId stub = t.node(walk).in1;
    ASSERT_NE(stub, kNoNode);
    EXPECT_EQ(t.node(stub).kind, ProducerNode::Kind::Truncated);
    EXPECT_EQ(t.node(stub).pc, 2u);  // stub preserves the site
}

TEST(DepTracker, CrossPcChainsCapAtGlobalDepth)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    // Alternate two pcs so the self-chain rule does not fire.
    for (int i = 0; i < 2000; ++i)
        t.onAlu(2 + (i & 1), alu(Opcode::Add, 1, 1, 1),
                static_cast<std::uint64_t>(i));
    EXPECT_LE(t.node(t.regProducer(1)).depth, kMaxChainDepth);
}

TEST(DepTracker, StubsPreserveValues)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 0), 0);
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        last = i + 1;
        t.onAlu(2, alu(Opcode::Add, 1, 1, 1), last);
    }
    // Every node in the chain, stub or not, reports the value it
    // produced (Live cuts and signatures depend on this).
    NodeId walk = t.regProducer(1);
    std::uint64_t expect = last;
    while (walk != kNoNode) {
        EXPECT_EQ(t.node(walk).value, expect);
        --expect;
        walk = t.node(walk).in1;
    }
}

TEST(DepTracker, SequenceNumbersAreMonotonic)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onAlu(2, alu(Opcode::Li, 2, 0, 0, 2), 2);
    t.onAlu(3, alu(Opcode::Add, 3, 1, 2), 3);
    EXPECT_LT(t.node(t.regProducer(1)).seq, t.node(t.regProducer(3)).seq);
    EXPECT_EQ(t.productions(), 3u);
}

TEST(DepTracker, ArenaRecyclesDeadSubgraphs)
{
    DepTracker t;
    // Overwriting a register's production releases the old chain; the
    // arena must reuse its slots instead of growing.
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onAlu(2, alu(Opcode::Li, 2, 0, 0, 2), 2);
    for (int i = 0; i < 1000; ++i)
        t.onAlu(3, alu(Opcode::Add, 4, 1, 2), 3);  // rd not an input
    // r4's previous tree dies on every overwrite: steady-state arena
    // size is far below one slot per production.
    EXPECT_LT(t.arenaSize(), 64u);
}

TEST(DepTracker, PinKeepsSubgraphAlive)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 5), 5);
    t.onAlu(2, alu(Opcode::Add, 2, 1, 1), 10);
    NodeId pinned = t.regProducer(2);
    t.pin(pinned);
    // Clobber both registers: without the pin the whole tree would be
    // recycled and the id would dangle.
    t.onAlu(3, alu(Opcode::Li, 1, 0, 0, 0), 0);
    t.onAlu(4, alu(Opcode::Li, 2, 0, 0, 0), 0);
    EXPECT_EQ(t.node(pinned).value, 10u);
    EXPECT_EQ(t.node(pinned).pc, 2u);
    ASSERT_NE(t.node(pinned).in1, kNoNode);
    EXPECT_EQ(t.node(t.node(pinned).in1).pc, 1u);
}

}  // namespace
}  // namespace amnesiac
