/**
 * @file
 * Tests for the §3.2 microarchitectural structures: SFile, Renamer,
 * Hist (with the §3.5 overflow semantics), and IBuff.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/uarch.h"

namespace amnesiac {
namespace {

TEST(SFile, AllocateReadDeallocate)
{
    SFile sfile(4);
    auto a = sfile.alloc(11);
    auto b = sfile.alloc(22);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(sfile.read(*a), 11u);
    EXPECT_EQ(sfile.read(*b), 22u);
    EXPECT_EQ(sfile.inUse(), 2u);
    sfile.beginSlice();
    EXPECT_EQ(sfile.inUse(), 0u);
}

TEST(SFile, OverflowReturnsNothingAndCounts)
{
    SFile sfile(2);
    EXPECT_TRUE(sfile.alloc(1).has_value());
    EXPECT_TRUE(sfile.alloc(2).has_value());
    EXPECT_FALSE(sfile.alloc(3).has_value());
    EXPECT_EQ(sfile.overflows(), 1u);
    // Deallocation makes room again (per-slice lifetime, §3.2).
    sfile.beginSlice();
    EXPECT_TRUE(sfile.alloc(4).has_value());
}

TEST(SFile, HighWaterTracksPeakOccupancy)
{
    SFile sfile(8);
    sfile.alloc(1);
    sfile.alloc(2);
    sfile.alloc(3);
    sfile.beginSlice();
    sfile.alloc(4);
    EXPECT_EQ(sfile.highWater(), 3u);
}

TEST(Renamer, MapsAndForgets)
{
    Renamer renamer;
    EXPECT_FALSE(renamer.lookup(5).has_value());
    renamer.bind(5, 2);
    ASSERT_TRUE(renamer.lookup(5).has_value());
    EXPECT_EQ(*renamer.lookup(5), 2u);
    renamer.bind(5, 7);  // later definition wins (rename semantics)
    EXPECT_EQ(*renamer.lookup(5), 7u);
    renamer.beginSlice();
    EXPECT_FALSE(renamer.lookup(5).has_value());
}

TEST(Hist, RecordAndLookup)
{
    Hist hist(4, 16);
    EXPECT_EQ(hist.lookup(10), nullptr);
    EXPECT_TRUE(hist.record(10, 111, 222));
    const Hist::Entry *entry = hist.lookup(10);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->values[0], 111u);
    EXPECT_EQ(entry->values[1], 222u);
    EXPECT_EQ(hist.writes(), 1u);
    EXPECT_EQ(hist.reads(), 1u);
}

TEST(Hist, LatestCheckpointWins)
{
    Hist hist(4, 16);
    hist.record(10, 1, 2);
    hist.record(10, 3, 4);
    EXPECT_EQ(hist.lookup(10)->values[0], 3u);
    EXPECT_EQ(hist.size(), 1u);
}

TEST(Hist, OverflowFailsNewLeavesButUpdatesOldOnes)
{
    // §3.5: capacity overflow makes the REC fail; existing entries stay
    // writable.
    Hist hist(2, 16);
    EXPECT_TRUE(hist.record(1, 0, 0));
    EXPECT_TRUE(hist.record(2, 0, 0));
    EXPECT_FALSE(hist.record(3, 0, 0));
    EXPECT_EQ(hist.overflows(), 1u);
    EXPECT_TRUE(hist.record(1, 9, 9));  // update still fine
    EXPECT_EQ(hist.lookup(1)->values[0], 9u);
    EXPECT_EQ(hist.highWater(), 2u);
}

TEST(Hist, EraseFreesASlotForANewLeafWhenFull)
{
    Hist hist(2, 16);
    EXPECT_TRUE(hist.record(1, 10, 11));
    EXPECT_TRUE(hist.record(2, 20, 21));
    EXPECT_FALSE(hist.record(3, 30, 31));  // full
    EXPECT_EQ(hist.overflows(), 1u);
    EXPECT_TRUE(hist.erase(1));
    EXPECT_FALSE(hist.erase(1));  // already gone
    EXPECT_EQ(hist.size(), 1u);
    EXPECT_EQ(hist.lookup(1), nullptr);
    EXPECT_TRUE(hist.record(3, 30, 31));  // the freed slot
    EXPECT_EQ(hist.size(), 2u);
    EXPECT_FALSE(hist.record(1, 12, 13));  // full again
    EXPECT_EQ(hist.overflows(), 2u);
    EXPECT_EQ(hist.writes(), 3u);
    EXPECT_EQ(hist.highWater(), 2u);
    ASSERT_NE(hist.lookup(3), nullptr);
    EXPECT_EQ(hist.lookup(3)->values[0], 30u);
    EXPECT_EQ(hist.lookup(3)->values[1], 31u);
    EXPECT_EQ(hist.lookup(2)->values[0], 20u);
}

TEST(Hist, ReRecordingAnErasedLeafStartsFresh)
{
    Hist hist(4, 16);
    EXPECT_TRUE(hist.record(5, 1, 2));
    EXPECT_TRUE(hist.erase(5));
    EXPECT_TRUE(hist.record(5, 3, 4));
    ASSERT_NE(hist.lookup(5), nullptr);
    EXPECT_EQ(hist.lookup(5)->values[0], 3u);
    EXPECT_EQ(hist.lookup(5)->values[1], 4u);
    EXPECT_EQ(hist.size(), 1u);
    EXPECT_EQ(hist.highWater(), 1u);
}

TEST(Hist, HighWaterSurvivesErase)
{
    Hist hist(4, 16);
    hist.record(1, 0, 0);
    hist.record(2, 0, 0);
    hist.record(3, 0, 0);
    EXPECT_EQ(hist.highWater(), 3u);
    EXPECT_TRUE(hist.erase(2));
    EXPECT_EQ(hist.size(), 2u);
    EXPECT_EQ(hist.highWater(), 3u);
    hist.record(4, 0, 0);
    EXPECT_EQ(hist.size(), 3u);
    EXPECT_EQ(hist.highWater(), 3u);
    hist.record(5, 0, 0);
    EXPECT_EQ(hist.size(), 4u);
    EXPECT_EQ(hist.highWater(), 4u);
}

TEST(Hist, CorruptFlipsOneLaneOfARecordedEntry)
{
    Hist hist(4, 16);
    EXPECT_TRUE(hist.record(7, 0xF0, 0x0F));
    EXPECT_TRUE(hist.corrupt(7, 0, 0xFF));
    EXPECT_EQ(hist.lookup(7)->values[0], 0x0Fu);
    EXPECT_EQ(hist.lookup(7)->values[1], 0x0Fu);
    EXPECT_TRUE(hist.corrupt(7, 1, 0x1));
    EXPECT_EQ(hist.lookup(7)->values[1], 0x0Eu);
    EXPECT_EQ(hist.writes(), 1u);  // a flip is not a write
    EXPECT_TRUE(hist.erase(7));
    EXPECT_FALSE(hist.corrupt(7, 0, 0x1));  // erased
}

TEST(Hist, UnrecordedAndOutOfRangeLeavesHaveNoEntry)
{
    Hist hist(4, 16);
    EXPECT_TRUE(hist.record(3, 1, 2));
    for (std::uint32_t leaf : {0u, 4u, 15u, 16u, 1u << 20, 0xFFFFFFFFu}) {
        SCOPED_TRACE("leaf " + std::to_string(leaf));
        EXPECT_EQ(hist.lookup(leaf), nullptr);
        EXPECT_FALSE(hist.corrupt(leaf, 0, 0x1));
        EXPECT_FALSE(hist.erase(leaf));
    }
    EXPECT_EQ(hist.size(), 1u);
    EXPECT_EQ(hist.reads(), 0u);  // misses are not reads
    EXPECT_NE(hist.lookup(3), nullptr);
    EXPECT_EQ(hist.reads(), 1u);
    EXPECT_EQ(hist.lookup(3)->values[1], 2u);
    EXPECT_EQ(hist.reads(), 2u);
}

TEST(Hist, OutOfRangeLeafFailsLikeAnOverflow)
{
    // A REC aimed outside the program (AMN203) cannot be checkpointed:
    // it fails and poisons its slice instead of growing the table.
    Hist hist(4, 16);
    EXPECT_FALSE(hist.record(16, 1, 2));
    EXPECT_FALSE(hist.record(0xFFFFFFFFu, 1, 2));
    EXPECT_EQ(hist.overflows(), 2u);
    EXPECT_EQ(hist.size(), 0u);
    EXPECT_EQ(hist.writes(), 0u);
    EXPECT_TRUE(hist.record(15, 1, 2));  // the last leaf in range
}

TEST(IBuff, TracksCoverage)
{
    IBuff ibuff(8);
    EXPECT_TRUE(ibuff.fill(5));
    EXPECT_TRUE(ibuff.fill(8));
    EXPECT_FALSE(ibuff.fill(9));
    EXPECT_EQ(ibuff.fills(), 3u);
    EXPECT_EQ(ibuff.tooLarge(), 1u);
    EXPECT_EQ(ibuff.highWater(), 8u);
}

}  // namespace
}  // namespace amnesiac
