/**
 * @file
 * Unit tests for the pseudo-associative (column-associative) cache
 * and its MCT-guided replacement (§5.4).
 */

#include <gtest/gtest.h>

#include "pseudo/pseudo_cache.hh"

namespace ccm
{
namespace
{

using Kind = PseudoAccess::Kind;

/** 1KB direct-mapped: 16 sets; secondary flips bit 3 of the index. */
CacheGeometry
geom()
{
    return CacheGeometry(1024, 1, 64);
}

/** Address with set index @p set and tag @p t. */
ByteAddr
mkAddr(std::size_t set, Addr t)
{
    return geom().recompose(Tag{t}, SetIndex{set}).asByte();
}

TEST(Pseudo, ColdMissThenPrimaryHit)
{
    PseudoAssocCache c(geom(), true);
    EXPECT_EQ(c.access(mkAddr(0, 1), false).kind, Kind::Miss);
    EXPECT_EQ(c.access(mkAddr(0, 1), false).kind, Kind::PrimaryHit);
    EXPECT_EQ(c.primaryHits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Pseudo, SecondSetMemberDemotesToSecondary)
{
    PseudoAssocCache c(geom(), true);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2);
    c.access(a, false);   // a in primary slot 0
    c.access(b, false);   // a demoted to secondary (set 8), b primary
    // a now hits in its secondary location: swap back.
    PseudoAccess res = c.access(a, false);
    EXPECT_EQ(res.kind, Kind::SecondaryHit);
    EXPECT_EQ(c.swaps(), 1u);
    // And immediately again: now primary.
    EXPECT_EQ(c.access(a, false).kind, Kind::PrimaryHit);
    // b was swapped to the secondary slot.
    EXPECT_EQ(c.access(b, false).kind, Kind::SecondaryHit);
}

TEST(Pseudo, PairAbsorbedLikeTwoWay)
{
    // After warmup, an aliased pair never misses (it 2-way fits).
    PseudoAssocCache c(geom(), true);
    ByteAddr a = mkAddr(3, 1), b = mkAddr(3, 2);
    c.access(a, false);
    c.access(b, false);
    for (int i = 0; i < 20; ++i) {
        EXPECT_NE(c.access(a, false).kind, Kind::Miss);
        EXPECT_NE(c.access(b, false).kind, Kind::Miss);
    }
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Pseudo, ProbeSeesBothLocations)
{
    PseudoAssocCache c(geom(), true);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2);
    c.access(a, false);
    c.access(b, false);
    EXPECT_TRUE(c.probe(a));   // in secondary
    EXPECT_TRUE(c.probe(b));   // in primary
    EXPECT_FALSE(c.probe(mkAddr(0, 3)));
}

TEST(Pseudo, EvictionReported)
{
    PseudoAssocCache c(geom(), false);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2), d = mkAddr(0, 3);
    c.access(a, true);    // dirty
    c.access(b, false);
    PseudoAccess res = c.access(d, false);
    EXPECT_EQ(res.kind, Kind::Miss);
    ASSERT_TRUE(res.evictedValid);
    // LRU between candidates picks a (older).
    EXPECT_EQ(res.evictedLineAddr, geom().lineOf(a));
    EXPECT_TRUE(res.evictedDirty);
}

TEST(Pseudo, SecondaryResidentCanConflictWithItsOwnPrimary)
{
    // A line displaced to its secondary set competes with lines whose
    // primary is that set.
    PseudoAssocCache c(geom(), false);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2);
    c.access(a, false);
    c.access(b, false);         // a displaced to set 8
    ByteAddr x = mkAddr(8, 7);      // primary = set 8
    c.access(x, false);         // x takes set 8's primary slot...
    EXPECT_TRUE(c.probe(x));
}

TEST(Pseudo, MctVetoProtectsConflictLine)
{
    PseudoAssocCache c(geom(), true);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2), s1 = mkAddr(0, 3);

    // Warm the pair, then force an eviction/re-fetch of a so its
    // conflict bit is set: a evicted, then misses again -> MCT match.
    c.access(a, false);
    c.access(b, false);          // slots: primary=b, secondary=a
    c.access(s1, false);         // evicts LRU=a; MCT[0]=a
    PseudoAccess res = c.access(a, false);
    EXPECT_EQ(res.kind, Kind::Miss);
    EXPECT_TRUE(res.wasConflict);   // MCT caught it
    // a re-installed with its conflict bit set.  Now a stream line
    // arrives: candidates are a (bit=1) and whichever of b/s1
    // remains (bit=0): the veto evicts the unprotected one.
    ByteAddr s2 = mkAddr(0, 4);
    c.access(s2, false);
    EXPECT_TRUE(c.probe(a));     // protected
    EXPECT_GT(c.replacementOverrides(), 0u);
}

TEST(Pseudo, VetoIsOneShot)
{
    // After a veto spends the survivor's bit, plain LRU resumes.
    PseudoAssocCache c(geom(), true);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2), s1 = mkAddr(0, 3);
    c.access(a, false);
    c.access(b, false);
    c.access(s1, false);
    c.access(a, false);          // conflict, bit set
    c.access(mkAddr(0, 4), false);  // veto protects a, clears bit
    Count overrides = c.replacementOverrides();
    c.access(mkAddr(0, 5), false);  // no bits left: LRU
    // a unprotected now; the new miss may have evicted it.
    EXPECT_EQ(c.replacementOverrides(), overrides);
}

TEST(Pseudo, BaselineIgnoresMct)
{
    PseudoAssocCache c(geom(), false);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2), s1 = mkAddr(0, 3);
    c.access(a, false);
    c.access(b, false);
    c.access(s1, false);
    PseudoAccess res = c.access(a, false);
    EXPECT_FALSE(res.wasConflict);   // baseline never classifies
    EXPECT_EQ(c.replacementOverrides(), 0u);
}

TEST(Pseudo, StatsAndClear)
{
    PseudoAssocCache c(geom(), true);
    c.access(mkAddr(0, 1), false);
    c.access(mkAddr(0, 1), false);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_NEAR(c.missRate(), 0.5, 1e-12);
    c.clear();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_FALSE(c.probe(mkAddr(0, 1)));
}

TEST(Pseudo, DirtyBitTravelsThroughSwap)
{
    PseudoAssocCache c(geom(), false);
    ByteAddr a = mkAddr(0, 1), b = mkAddr(0, 2);
    c.access(a, true);           // dirty store miss
    c.access(b, false);          // a -> secondary
    c.access(a, false);          // secondary hit: swap back
    c.access(b, false);          // b secondary hit: swap
    // Evict a (LRU after the last swap pattern) and check dirtiness
    // survived the moves.
    PseudoAccess res = c.access(mkAddr(0, 3), false);
    ASSERT_TRUE(res.evictedValid);
    if (res.evictedLineAddr == geom().lineOf(a)) {
        EXPECT_TRUE(res.evictedDirty);
    }
}

TEST(PseudoDeath, RequiresDirectMappedGeometry)
{
    CacheGeometry g2(1024, 2, 64);
    EXPECT_EQ(PseudoAssocCache::validate(g2).code(),
              ErrorCode::BadConfig);
    EXPECT_DEATH(PseudoAssocCache(g2, true), "direct-mapped");
}

TEST(PseudoDeath, RequiresTwoSets)
{
    CacheGeometry one_set(64, 1, 64);
    EXPECT_TRUE(PseudoAssocCache::validate(geom()).isOk());
    EXPECT_EQ(PseudoAssocCache::validate(one_set).code(),
              ErrorCode::BadConfig);
    EXPECT_DEATH(PseudoAssocCache(one_set, true), ">= 2 sets");
}

} // namespace
} // namespace ccm
