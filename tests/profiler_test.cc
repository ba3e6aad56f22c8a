/**
 * @file
 * Tests for the profiling pass: per-site residence statistics, backward
 * tree capture, stability, live-operand statistics, and value locality
 * — the inputs of the §3.1.1 compiler pass.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "isa/program_builder.h"
#include "profile/profiler.h"

namespace amnesiac {
namespace {

void
runProfiled(const Program &p, Profiler &profiler)
{
    Machine m(p, EnergyModel{});
    m.setObserver(&profiler);
    m.run();
}

/** Live-operand statistics of operand k of the production at pc. */
OperandLiveStat
liveStat(const SiteProfile &site, std::uint32_t pc, int k)
{
    return site.operandLive(pc, k);
}

/** Value locality of a load site in percent (0 when never executed). */
double
localityPercent(const Profiler &profiler, std::uint32_t pc)
{
    const SiteProfile *site = profiler.site(pc);
    return site ? site->valueLocalityPercent() : 0.0;
}

TEST(Profiler, ResidenceStatisticsPerSite)
{
    // Load the same word repeatedly: first from memory, then L1.
    ProgramBuilder b("residence");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 3);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 8);
    b.li(4, 1);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t load_pc = b.ld(5, 1);
    b.alu(Opcode::Add, 2, 2, 4);
    b.blt(2, 3, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->count, 8u);
    EXPECT_EQ(site->byLevel[static_cast<int>(MemLevel::Memory)], 1u);
    EXPECT_EQ(site->byLevel[static_cast<int>(MemLevel::L1)], 7u);
    EXPECT_NEAR(site->prLevel(MemLevel::L1), 7.0 / 8.0, 1e-12);
    // The loaded value is a program input: untracked at every instance.
    EXPECT_EQ(site->untracked, 8u);
    EXPECT_DOUBLE_EQ(site->stability(), 0.0);
}

TEST(Profiler, CapturesProducerTreeAndLiveOperands)
{
    // v = (x + x) stored then reloaded; x stays live in r2.
    ProgramBuilder b("tree");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->untracked, 0u);
    EXPECT_DOUBLE_EQ(site->stability(), 1.0);
    const CandidateTree *top = site->topTree();
    ASSERT_NE(top, nullptr);
    ASSERT_NE(top->representative, kNoNode);
    EXPECT_EQ(profiler.tracker().node(top->representative).pc, add_pc);
    // Both operands of the producer read r2, which still holds x = 5.
    OperandLiveStat stat = liveStat(*site, add_pc, 0);
    ASSERT_GT(stat.seen, 0u);
    EXPECT_DOUBLE_EQ(stat.rate(), 1.0);
}

TEST(Profiler, DetectsClobberedOperandAsNonLive)
{
    ProgramBuilder b("clobber");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 999);  // clobber x before the load
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    OperandLiveStat stat = liveStat(*site, add_pc, 0);
    ASSERT_GT(stat.seen, 0u);
    EXPECT_DOUBLE_EQ(stat.rate(), 0.0);
}

TEST(Profiler, ReProducedValueCountsAsLive)
{
    // x is overwritten but re-produced with the same value before the
    // load: value-equality makes Live sourcing legal (DESIGN.md §5).
    ProgramBuilder b("reproduce");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 999);
    b.li(2, 5);  // re-produce the same value
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    OperandLiveStat stat = liveStat(*profiler.site(load_pc), add_pc, 0);
    ASSERT_GT(stat.seen, 0u);
    EXPECT_DOUBLE_EQ(stat.rate(), 1.0);
}

TEST(Profiler, StabilityDropsWhenProducersAlternate)
{
    // Two different producer sites alternately write the loaded word.
    ProgramBuilder b("unstable");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 3);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 6);
    std::uint32_t load_pc = 0;
    auto top = b.newLabel();
    auto odd = b.newLabel();
    auto join = b.newLabel();
    b.bind(top);
    b.alu(Opcode::And, 5, 6, 7);
    b.bne(5, 7, odd);
    b.alu(Opcode::Add, 3, 2, 2);  // producer A
    b.st(1, 0, 3);
    b.jmp(join);
    b.bind(odd);
    b.alu(Opcode::Mul, 3, 2, 2);  // producer B
    b.st(1, 0, 3);
    b.bind(join);
    load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->trees.size(), 2u);
    EXPECT_NEAR(site->stability(), 0.5, 0.2);
}

TEST(Profiler, ExecCountsPerPc)
{
    ProgramBuilder b("counts");
    b.li(1, 0);
    b.li(2, 4);
    b.li(3, 1);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t body = b.alu(Opcode::Add, 1, 1, 3);
    b.blt(1, 2, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_EQ(profiler.execCount(body), 4u);
    EXPECT_EQ(profiler.execCount(0), 1u);
}

TEST(Profiler, SitesSortedByPc)
{
    ProgramBuilder b("sites");
    std::uint64_t a = b.allocWords(2);
    b.li(1, a);
    b.ld(2, 1, 8);
    b.ld(3, 1, 0);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    auto sites = profiler.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_LT(sites[0]->pc, sites[1]->pc);
}

TEST(Profiler, ValueLocalityIsRecorded)
{
    ProgramBuilder b("vl");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 9);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 1);
    b.li(4, 6);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t load_pc = b.ld(5, 1);
    b.alu(Opcode::Add, 2, 2, 3);
    b.blt(2, 4, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, load_pc), 100.0);
}

/**
 * A three-add chain over four program inputs (InputLoad leaves), stored
 * and reloaded three times with r2..r4 and r6 clobbered, so only r5 is
 * a Live cut. The signature walk charges every node it enters (adds and
 * InputLoads), the live statistics charge only the adds, and both share
 * the depth cap.
 */
struct InputChain
{
    Program program;
    std::uint32_t add1 = 0, add2 = 0, add3 = 0, load = 0;
};

InputChain
inputChain()
{
    InputChain c;
    ProgramBuilder b("input-chain");
    std::uint64_t a = b.allocWords(5);
    for (std::uint64_t i = 0; i < 4; ++i)
        b.poke(a + 8 * i, 10 + i);
    b.li(1, a);
    b.li(8, 0);
    b.li(9, 1);
    b.li(10, 3);
    auto top = b.newLabel();
    b.bind(top);
    b.ld(2, 1, 0);
    b.ld(3, 1, 8);
    b.ld(4, 1, 16);
    b.ld(5, 1, 24);
    c.add1 = b.alu(Opcode::Add, 6, 2, 3);
    c.add2 = b.alu(Opcode::Add, 6, 6, 4);
    c.add3 = b.alu(Opcode::Add, 6, 6, 5);
    b.st(1, 32, 6);
    b.li(2, 0);
    b.li(3, 0);
    b.li(4, 0);
    b.li(6, 0);
    c.load = b.ld(7, 1, 32);
    b.alu(Opcode::Add, 8, 8, 9);
    b.blt(8, 10, top);
    b.halt();
    c.program = b.finish();
    return c;
}

TEST(Profiler, SignatureBudgetRunsOutBeforeLiveBudget)
{
    InputChain c = inputChain();
    auto profile = [&](int max_nodes) {
        ProfilerConfig config;
        config.maxTreeNodes = max_nodes;
        auto profiler = std::make_unique<Profiler>(config);
        runProfiled(c.program, *profiler);
        return profiler;
    };

    // Budget 4: the signature enters add3, add2, add1 and the r2 input,
    // then cuts the r3/r4 inputs with the budget marker; the live walk
    // has charged only the three adds and records every operand.
    auto four = profile(4);
    const SiteProfile *site = four->site(c.load);
    ASSERT_NE(site, nullptr);
    ASSERT_EQ(site->trees.size(), 1u);
    EXPECT_EQ(site->trees[0].count, 3u);
    EXPECT_EQ(site->trees[0].signature, 0xfee87fd0dc9c202dull);
    for (std::uint32_t pc : {c.add1, c.add2, c.add3}) {
        for (int k = 0; k < 2; ++k) {
            SCOPED_TRACE("pc " + std::to_string(pc) + " operand " +
                         std::to_string(k));
            OperandLiveStat stat = liveStat(*site, pc, k);
            EXPECT_EQ(stat.seen, 3u);
            // Only r5 (add3's second operand) still holds its input.
            EXPECT_EQ(stat.matches, pc == c.add3 && k == 1 ? 3u : 0u);
        }
    }

    // Budget 2: both walks stop below add2; add1's operands are never
    // seen, and the signature differs from the budget-4 one.
    auto two = profile(2);
    const SiteProfile *cut = two->site(c.load);
    ASSERT_NE(cut, nullptr);
    ASSERT_EQ(cut->trees.size(), 1u);
    EXPECT_EQ(cut->trees[0].signature, 0x5bfebe082cd1dbebull);
    EXPECT_EQ(liveStat(*cut, c.add1, 0).seen, 0u);
    EXPECT_EQ(liveStat(*cut, c.add1, 1).seen, 0u);
    EXPECT_EQ(liveStat(*cut, c.add2, 0).seen, 3u);
    EXPECT_EQ(liveStat(*cut, c.add3, 1).matches, 3u);

    // The default budget covers the whole tree.
    auto full = profile(ProfilerConfig{}.maxTreeNodes);
    EXPECT_EQ(full->site(c.load)->trees[0].signature,
              0x56f41f73bf663757ull);
}

}  // namespace
}  // namespace amnesiac
