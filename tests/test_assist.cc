/**
 * @file
 * Unit tests for the cache-assist buffer: lookup, LRU replacement,
 * per-source accounting, wasted-prefetch tracking, and entry
 * transitions.
 */

#include <gtest/gtest.h>

#include "assist/buffer.hh"

namespace ccm
{
namespace
{

TEST(AssistBuffer, InsertAndFind)
{
    AssistBuffer b(4);
    EXPECT_EQ(b.find(LineAddr{0x40}), nullptr);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    BufEntry *e = b.find(LineAddr{0x40});
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->lineAddr, LineAddr{0x40});
    EXPECT_EQ(e->source, BufSource::Victim);
    EXPECT_EQ(b.occupancy(), 1u);
}

TEST(AssistBuffer, LruEvictionOrder)
{
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    // Touch 0x40 so 0x80 becomes LRU.
    b.recordHit(*b.find(LineAddr{0x40}));
    BufEvicted ev = b.insert(LineAddr{0xC0}, BufSource::Victim, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, LineAddr{0x80});
    EXPECT_NE(b.find(LineAddr{0x40}), nullptr);
}

TEST(AssistBuffer, InvalidSlotsUsedFirst)
{
    AssistBuffer b(3);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    EXPECT_FALSE(b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0)
                     .valid);
    EXPECT_FALSE(b.insert(LineAddr{0xC0}, BufSource::Victim, false, false, 0)
                     .valid);
    EXPECT_TRUE(b.insert(LineAddr{0x100}, BufSource::Victim, false, false, 0)
                    .valid);
}

TEST(AssistBuffer, EraseFreesSlot)
{
    AssistBuffer b(1);
    b.insert(LineAddr{0x40}, BufSource::Bypass, false, true, 0);
    EXPECT_TRUE(b.erase(LineAddr{0x40}));
    EXPECT_FALSE(b.erase(LineAddr{0x40}));
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_FALSE(b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0)
                     .valid);
}

TEST(AssistBuffer, EvictionReportsDirtyAndSource)
{
    AssistBuffer b(1);
    b.insert(LineAddr{0x40}, BufSource::Bypass, true, true, 0);
    BufEvicted ev = b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.source, BufSource::Bypass);
    EXPECT_FALSE(ev.wasUsed);
}

TEST(AssistBuffer, HitAccountingPerSource)
{
    AssistBuffer b(4);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Prefetch, false, false, 0);
    b.insert(LineAddr{0xC0}, BufSource::Bypass, false, false, 0);
    b.recordHit(*b.find(LineAddr{0x40}));
    b.recordHit(*b.find(LineAddr{0x40}));
    b.recordHit(*b.find(LineAddr{0x80}));
    EXPECT_EQ(b.hits(BufSource::Victim), 2u);
    EXPECT_EQ(b.hits(BufSource::Prefetch), 1u);
    EXPECT_EQ(b.hits(BufSource::Bypass), 0u);
    EXPECT_EQ(b.totalHits(), 3u);
}

TEST(AssistBuffer, InsertionAccountingPerSource)
{
    AssistBuffer b(8);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0xC0}, BufSource::Prefetch, false, false, 0);
    EXPECT_EQ(b.insertions(BufSource::Victim), 2u);
    EXPECT_EQ(b.insertions(BufSource::Prefetch), 1u);
    EXPECT_EQ(b.fills(), 3u);
}

TEST(AssistBuffer, WastedPrefetchCountedOnUnusedEviction)
{
    AssistBuffer b(1);
    b.insert(LineAddr{0x40}, BufSource::Prefetch, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);  // evicts
    EXPECT_EQ(b.wastedPrefetches(), 1u);
}

TEST(AssistBuffer, UsedPrefetchNotWasted)
{
    AssistBuffer b(1);
    b.insert(LineAddr{0x40}, BufSource::Prefetch, false, false, 0);
    b.recordHit(*b.find(LineAddr{0x40}));
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    EXPECT_EQ(b.wastedPrefetches(), 0u);
}

TEST(AssistBuffer, EvictedVictimNotCountedAsWastedPrefetch)
{
    AssistBuffer b(1);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    EXPECT_EQ(b.wastedPrefetches(), 0u);
}

TEST(AssistBuffer, SourceTransitionKeepsEntry)
{
    // The AMB re-marks a prefetched line as an exclusion line on a
    // hit (§5.5); the entry object supports in-place transition.
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Prefetch, false, false, 0);
    BufEntry *e = b.find(LineAddr{0x40});
    b.recordHit(*e);
    e->source = BufSource::Bypass;
    EXPECT_EQ(b.find(LineAddr{0x40})->source, BufSource::Bypass);
    // Its later eviction is not a wasted prefetch.
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0xC0}, BufSource::Victim, false, false, 0);
    EXPECT_EQ(b.wastedPrefetches(), 0u);
}

TEST(AssistBuffer, ReadyCycleStored)
{
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Prefetch, false, false, 123);
    EXPECT_EQ(b.find(LineAddr{0x40})->ready, 123u);
}

TEST(AssistBuffer, ConflictBitStored)
{
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Victim, true, false, 0);
    EXPECT_TRUE(b.find(LineAddr{0x40})->conflictBit);
}

TEST(AssistBuffer, FlushInvalidatesButKeepsStats)
{
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.recordHit(*b.find(LineAddr{0x40}));
    b.flush();
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_EQ(b.find(LineAddr{0x40}), nullptr);
    EXPECT_EQ(b.totalHits(), 1u);
    b.clearStats();
    EXPECT_EQ(b.totalHits(), 0u);
    EXPECT_EQ(b.fills(), 0u);
}

TEST(AssistBuffer, FifoIgnoresHitRecency)
{
    AssistBuffer b(2, BufRepl::Fifo);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    // Touch the older entry: FIFO still evicts it first.
    b.recordHit(*b.find(LineAddr{0x40}));
    BufEvicted ev = b.insert(LineAddr{0xC0}, BufSource::Victim, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, LineAddr{0x40});
}

TEST(AssistBuffer, LruRespectsHitRecency)
{
    AssistBuffer b(2, BufRepl::Lru);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    b.insert(LineAddr{0x80}, BufSource::Victim, false, false, 0);
    b.recordHit(*b.find(LineAddr{0x40}));
    BufEvicted ev = b.insert(LineAddr{0xC0}, BufSource::Victim, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, LineAddr{0x80});
}

TEST(AssistBufferDeath, ZeroEntriesRejected)
{
    EXPECT_EQ(AssistBuffer::validate(0).code(), ErrorCode::BadConfig);
    EXPECT_TRUE(AssistBuffer::validate(1).isOk());
    EXPECT_DEATH(AssistBuffer{0}, "at least one");
}

TEST(AssistBufferDeath, DoubleInsertPanics)
{
    AssistBuffer b(2);
    b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0);
    EXPECT_DEATH(b.insert(LineAddr{0x40}, BufSource::Victim, false, false, 0),
                 "resident");
}

/** Paper sizes: 8 and 16 entries behave identically modulo capacity. */
class AssistBufferSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AssistBufferSize, HoldsExactlyCapacity)
{
    unsigned n = GetParam();
    AssistBuffer b(n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_FALSE(
            b.insert(LineAddr{0x1000 + i * 64}, BufSource::Victim, false,
                     false, 0)
                .valid);
    EXPECT_EQ(b.occupancy(), n);
    EXPECT_TRUE(
        b.insert(LineAddr{0x1000 + n * 64}, BufSource::Victim, false, false, 0)
            .valid);
    EXPECT_EQ(b.occupancy(), n);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, AssistBufferSize,
                         ::testing::Values(1, 8, 16));

} // namespace
} // namespace ccm
