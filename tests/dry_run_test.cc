/**
 * @file
 * Tests for the dry-run functional validator: it must accept slices
 * that reproduce loaded values and reject slices whose Hist-latest
 * checkpoints go stale (the soundness guard of DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include "core/dry_run.h"
#include "core/slice_builder.h"
#include "isa/program_builder.h"
#include "profile/profiler.h"

namespace amnesiac {
namespace {

DryRunSiteResult
validate(const Program &program, const RSlice &slice)
{
    std::vector<RSlice> candidates{slice};
    DryRunValidator validator(candidates);
    Machine m(program, EnergyModel{});
    m.setObserver(&validator);
    m.run();
    return validator.result(0);
}

/** v = x + x with x Live: always reproducible. */
TEST(DryRun, AcceptsLiveSlice)
{
    ProgramBuilder b("live");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Add;
    root.origPc = add_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Live, 2, -1};
    root.ops[1] = {OperandSource::Live, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_EQ(result.evaluated, 10u);
    EXPECT_EQ(result.matched, 10u);
    EXPECT_DOUBLE_EQ(result.matchRate(), 1.0);
}

/** Hist checkpoint captured before the producer each iteration; the
 * load consumes the latest production, so Hist-latest is correct. */
TEST(DryRun, AcceptsFreshHistSlice)
{
    ProgramBuilder b("hist-fresh");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);           // x varies per iteration
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 0);                            // clobber x
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Mul;
    root.origPc = mul_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_DOUBLE_EQ(result.matchRate(), 1.0);
}

/** The load consumes a value produced two iterations ago while the
 * checkpoint tracks the latest production: Hist-latest is stale and the
 * validator must reject. This is exactly the unsoundness the paper's
 * proof-of-concept would not detect. */
TEST(DryRun, RejectsStaleHistSlice)
{
    ProgramBuilder b("hist-stale");
    std::uint64_t a = b.allocWords(2);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    b.li(9, 3);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);           // x = i+1, varies
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    // Store into word (i&1); the load below reads word ((i+1)&1) — the
    // *previous* iteration's production, so the latest checkpoint is
    // one production too new.
    b.alu(Opcode::And, 10, 6, 7);
    b.alu(Opcode::Shl, 10, 10, 9);
    b.alu(Opcode::Add, 10, 10, 1);
    b.st(10, 0, 3);
    b.alu(Opcode::Xor, 11, 6, 7);
    b.alu(Opcode::And, 11, 11, 7);
    b.alu(Opcode::Shl, 11, 11, 9);
    b.alu(Opcode::Add, 11, 11, 1);
    std::uint32_t load_pc = b.ld(4, 11);   // previous iteration's word
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Mul;
    root.origPc = mul_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_GT(result.evaluated, 0u);
    EXPECT_LT(result.matchRate(), 0.5);
}

/** A Hist-sourced slice whose producer never ran counts hist misses. */
TEST(DryRun, CountsHistMisses)
{
    ProgramBuilder b("hist-miss");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 7);
    b.li(1, a);
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Add;
    root.origPc = 999;  // never executed
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_EQ(result.histMisses, 1u);
    EXPECT_EQ(result.matched, 0u);
}

/** One replay validates several slice sets at once, so one load pc may
 * carry several candidates: each gets its own shadow Hist and result,
 * and a Hist miss in one does not cut the others short. */
TEST(DryRun, ValidatesEveryCandidateAtOneLoad)
{
    ProgramBuilder b("two-sets");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);           // x varies per iteration
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 0);                            // clobber x
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    auto mul_slice = [&](OperandSource source, std::uint32_t orig_pc) {
        RSlice slice;
        slice.loadPc = load_pc;
        SliceInstr root;
        root.op = Opcode::Mul;
        root.origPc = orig_pc;
        root.rd = 3;
        root.numOps = 2;
        root.ops[0] = {source, 2, -1};
        root.ops[1] = {source, 2, -1};
        slice.instrs.push_back(root);
        slice.computeStats();
        return slice;
    };
    // Never checkpointed (its capture pc never runs), then the correct
    // Hist slice, then a Live slice that reads the clobbered x.
    std::vector<RSlice> candidates{mul_slice(OperandSource::Hist, 999),
                                   mul_slice(OperandSource::Hist, mul_pc),
                                   mul_slice(OperandSource::Live, mul_pc)};
    DryRunValidator validator(candidates);
    Machine m(p, EnergyModel{});
    m.setObserver(&validator);
    m.run();

    const DryRunSiteResult &missed = validator.result(0);
    EXPECT_EQ(missed.evaluated, 10u);
    EXPECT_EQ(missed.histMisses, 10u);
    EXPECT_EQ(missed.matched, 0u);
    const DryRunSiteResult &fresh = validator.result(1);
    EXPECT_EQ(fresh.evaluated, 10u);
    EXPECT_EQ(fresh.histMisses, 0u);
    EXPECT_EQ(fresh.matched, 10u);
    const DryRunSiteResult &clobbered = validator.result(2);
    EXPECT_EQ(clobbered.evaluated, 10u);
    EXPECT_EQ(clobbered.matched, 0u);

    // Each candidate fares exactly as it does when validated alone.
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        DryRunSiteResult alone = validate(p, candidates[c]);
        EXPECT_EQ(alone.evaluated, validator.result(c).evaluated);
        EXPECT_EQ(alone.matched, validator.result(c).matched);
        EXPECT_EQ(alone.histMisses, validator.result(c).histMisses);
    }
}

}  // namespace
}  // namespace amnesiac
