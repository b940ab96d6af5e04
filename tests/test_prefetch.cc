/**
 * @file
 * Unit tests for the prefetchers: next-line address generation and
 * accounting, and the Chen & Baer RPT state machine.
 */

#include <gtest/gtest.h>

#include "prefetch/nextline.hh"
#include "prefetch/rpt.hh"

namespace ccm
{
namespace
{

// ---- next-line -----------------------------------------------------

TEST(NextLine, NextLineAddress)
{
    NextLinePrefetcher p(64);
    EXPECT_EQ(p.nextLine(LineAddr{0x0}), LineAddr{0x40});
    EXPECT_EQ(p.nextLine(LineAddr{0x40}), LineAddr{0x80});
    // Mid-line addresses round down first.
    EXPECT_EQ(p.nextLine(LineAddr{0x7F}), LineAddr{0x80});
    EXPECT_EQ(p.nextLine(LineAddr{0x123456}), LineAddr{0x123480});
}

TEST(NextLine, OtherLineSizes)
{
    NextLinePrefetcher p(32);
    EXPECT_EQ(p.nextLine(LineAddr{0x20}), LineAddr{0x40});
    NextLinePrefetcher q(128);
    EXPECT_EQ(q.nextLine(LineAddr{0x100}), LineAddr{0x180});
}

TEST(NextLine, AccountingAndAccuracy)
{
    NextLinePrefetcher p(64);
    p.countIssued();
    p.countIssued();
    p.countIssued();
    p.countUseful();
    p.countDropped();
    p.countFiltered();
    EXPECT_EQ(p.issued(), 3u);
    EXPECT_EQ(p.useful(), 1u);
    EXPECT_EQ(p.dropped(), 1u);
    EXPECT_EQ(p.filtered(), 1u);
    EXPECT_NEAR(p.accuracy(), 1.0 / 3.0, 1e-12);
    p.clearStats();
    EXPECT_EQ(p.issued(), 0u);
    EXPECT_DOUBLE_EQ(p.accuracy(), 0.0);
}

TEST(NextLineDeath, BadLineSize)
{
    EXPECT_DEATH(NextLinePrefetcher{60}, "power of two");
}

// ---- RPT -----------------------------------------------------------

using State = RptPrefetcher::State;

TEST(Rpt, FirstObservationPredictsNothing)
{
    RptPrefetcher rpt(64);
    EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000}).has_value());
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::Initial);
}

TEST(Rpt, SteadyStridepredictsNext)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    // Second access: stride 0x40 doesn't match initial stride 0 ->
    // transient; third matching stride -> steady & predicting.
    EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x1040}).has_value());
    auto p = rpt.observe(ByteAddr{0x400}, ByteAddr{0x1080});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, ByteAddr{0x10C0});
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::Steady);
    EXPECT_EQ(rpt.predictions(), 1u);
}

TEST(Rpt, ZeroStrideNeverPredicts)
{
    RptPrefetcher rpt(64);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000}).has_value());
    // Steady at stride 0, but a zero-stride prefetch is pointless.
}

TEST(Rpt, NegativeStrideWorks)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x2000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1FC0});
    auto p = rpt.observe(ByteAddr{0x400}, ByteAddr{0x1F80});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, ByteAddr{0x1F40});
}

TEST(Rpt, StrideChangeLeavesSteady)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1040});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1080});  // steady
    EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x5000}).has_value());
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::Initial);
}

TEST(Rpt, IrregularGoesToNoPred)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x2000});   // initial -> transient (new stride)
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x9000});   // transient -> nopred
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::NoPred);
    EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x12345678}).has_value());
}

TEST(Rpt, NoPredRecoversViaConsistentStride)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x2000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x9000});   // nopred, stride updated each miss
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x9040});   // stride 0x40 recorded, nopred
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x9080});   // correct -> transient
    auto p = rpt.observe(ByteAddr{0x400}, ByteAddr{0x90C0});  // correct -> steady
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, ByteAddr{0x9100});
}

TEST(Rpt, DistinctPcsTrackedIndependently)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x404}, ByteAddr{0x9000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1040});
    rpt.observe(ByteAddr{0x404}, ByteAddr{0x9100});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1080});
    auto p = rpt.observe(ByteAddr{0x404}, ByteAddr{0x9200});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, ByteAddr{0x9300});   // pc 0x404 strides 0x100
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::Steady);
}

TEST(Rpt, TableConflictResetsEntry)
{
    RptPrefetcher rpt(16);   // pcs 16*4 bytes apart collide
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1040});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1080});  // steady
    // A different pc mapping to the same entry steals it.
    rpt.observe(ByteAddr{0x400 + 16 * 4}, ByteAddr{0x7000});
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400 + 16 * 4}), State::Initial);
    // The original pc must retrain.
    EXPECT_FALSE(rpt.observe(ByteAddr{0x400}, ByteAddr{0x10C0}).has_value());
}

TEST(Rpt, ClearForgets)
{
    RptPrefetcher rpt(64);
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1000});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1040});
    rpt.observe(ByteAddr{0x400}, ByteAddr{0x1080});
    rpt.clear();
    EXPECT_EQ(rpt.predictions(), 0u);
    EXPECT_EQ(rpt.stateFor(ByteAddr{0x400}), State::Initial);
}

TEST(RptDeath, NonPowerOfTwoEntries)
{
    EXPECT_EQ(RptPrefetcher::validate(100).code(), ErrorCode::BadConfig);
    EXPECT_EQ(RptPrefetcher::validate(0).code(), ErrorCode::BadConfig);
    EXPECT_TRUE(RptPrefetcher::validate(256).isOk());
    EXPECT_DEATH(RptPrefetcher{100}, "power of two");
}

/** Strides sweep: RPT locks onto any constant stride. */
class RptStride : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(RptStride, LocksOn)
{
    std::int64_t stride = GetParam();
    RptPrefetcher rpt(64);
    Addr a = 0x800000;
    rpt.observe(ByteAddr{0x10}, ByteAddr{a});
    a += stride;
    rpt.observe(ByteAddr{0x10}, ByteAddr{a});
    for (int i = 0; i < 5; ++i) {
        a += stride;
        auto p = rpt.observe(ByteAddr{0x10}, ByteAddr{a});
        ASSERT_TRUE(p.has_value()) << "iteration " << i;
        EXPECT_EQ(*p, ByteAddr{a + stride});
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, RptStride,
                         ::testing::Values(8, 64, 512, 4096, -64,
                                           -8192));

} // namespace
} // namespace ccm
