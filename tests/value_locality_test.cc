/**
 * @file
 * Tests for the §5.6 value locality of load sites, as the profiling
 * pass records it per site (SiteProfile::valueLocalityPercent): each
 * case runs the Profiler over a ProgramBuilder loop whose load sees a
 * chosen value stream.
 */

#include <gtest/gtest.h>

#include <cstdint>

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

/** Value locality of a load site in percent (0 when never executed). */
double
localityPercent(const Profiler &profiler, std::uint32_t pc)
{
    const SiteProfile *site = profiler.site(pc);
    return site ? site->valueLocalityPercent() : 0.0;
}

/** A loop that stores value(i) to one word and reloads it, n times. */
template <typename ValueOf>
std::uint32_t
storeReloadLoop(ProgramBuilder &b, int n, ValueOf value_of)
{
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 1);
    b.li(4, static_cast<std::uint64_t>(n));
    auto top = b.newLabel();
    b.bind(top);
    value_of(b);  // r5 = value(r2)
    b.st(1, 0, 5);
    std::uint32_t load_pc = b.ld(6, 1);
    b.alu(Opcode::Add, 2, 2, 3);
    b.blt(2, 4, top);
    return load_pc;
}

TEST(ValueLocality, UnseenSiteIsZero)
{
    ProgramBuilder b("vl-unseen");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.halt();
    std::uint32_t load_pc = b.ld(2, 1);  // after the halt: never runs
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_EQ(profiler.site(load_pc), nullptr);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, load_pc), 0.0);
}

TEST(ValueLocality, SingleInstanceIsZero)
{
    ProgramBuilder b("vl-single");
    std::uint32_t load_pc =
        storeReloadLoop(b, 1, [](ProgramBuilder &pb) { pb.li(5, 42); });
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    ASSERT_NE(profiler.site(load_pc), nullptr);
    EXPECT_EQ(profiler.site(load_pc)->count, 1u);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, load_pc), 0.0);
}

TEST(ValueLocality, ConstantStreamIsFullyLocal)
{
    ProgramBuilder b("vl-constant");
    std::uint32_t load_pc =
        storeReloadLoop(b, 100, [](ProgramBuilder &pb) { pb.li(5, 7); });
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, load_pc), 100.0);
}

TEST(ValueLocality, DistinctStreamHasZeroLocality)
{
    ProgramBuilder b("vl-distinct");
    std::uint32_t load_pc = storeReloadLoop(
        b, 100, [](ProgramBuilder &pb) { pb.mov(5, 2); });
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, load_pc), 0.0);
}

TEST(ValueLocality, AlternatingStreamIsHalfLocalPerRepeat)
{
    // a a b b a a b b ... : half of the transitions repeat.
    ProgramBuilder b("vl-alternating");
    std::uint32_t load_pc =
        storeReloadLoop(b, 100, [](ProgramBuilder &pb) {
            pb.li(7, 1);
            pb.alu(Opcode::Shr, 5, 2, 7);
            pb.alu(Opcode::And, 5, 5, 7);  // r5 = (i / 2) % 2
        });
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_NEAR(localityPercent(profiler, load_pc), 50.0, 2.0);
}

TEST(ValueLocality, SitesAreIndependent)
{
    // One loop, two loads: a constant word and the loop index.
    ProgramBuilder b("vl-independent");
    std::uint64_t c = b.allocWords(1);
    b.poke(c, 7);
    b.li(8, c);
    std::uint32_t const_pc = 0;
    std::uint32_t index_pc = storeReloadLoop(
        b, 50, [&const_pc](ProgramBuilder &pb) {
            const_pc = pb.ld(9, 8);
            pb.mov(5, 2);
        });
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, const_pc), 100.0);
    EXPECT_DOUBLE_EQ(localityPercent(profiler, index_pc), 0.0);
}

}  // namespace
}  // namespace amnesiac
