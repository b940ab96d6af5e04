/**
 * @file
 * Unit tests for the set-associative cache: hits/misses, LRU
 * replacement, conflict bits, victim selection, and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"

namespace ccm
{
namespace
{

/** Tiny 2-set, 2-way cache: easy to reason about exactly. */
CacheGeometry
tinyGeom()
{
    return CacheGeometry(256, 2, 64);  // 2 sets x 2 ways x 64B
}

/** Address in set @p set with tag index @p t. */
ByteAddr
mkAddr(const CacheGeometry &g, std::size_t set, Addr t)
{
    return g.recompose(Tag{t}, SetIndex{set}).asByte();
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tinyGeom());
    EXPECT_FALSE(c.access(ByteAddr{0x0}, false));
    c.fill(ByteAddr{0x0}, false, false);
    EXPECT_TRUE(c.access(ByteAddr{0x0}, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, HitAnywhereInLine)
{
    Cache c(tinyGeom());
    c.fill(ByteAddr{0x40}, false, false);
    EXPECT_TRUE(c.access(ByteAddr{0x40}, false));
    EXPECT_TRUE(c.access(ByteAddr{0x7F}, false));
    EXPECT_FALSE(c.access(ByteAddr{0x80}, false));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1), b = mkAddr(g, 0, 2),
             d = mkAddr(g, 0, 3);
    c.fill(a, false, false);
    c.fill(b, false, false);
    // a is LRU.  Probing a must not refresh it.
    EXPECT_NE(c.probe(a), nullptr);
    FillResult ev = c.fill(d, false, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, g.lineOf(a));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1), b = mkAddr(g, 0, 2),
             d = mkAddr(g, 0, 3);
    c.fill(a, false, false);
    c.fill(b, false, false);
    c.access(a, false);          // refresh a; b becomes LRU
    FillResult ev = c.fill(d, false, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, g.lineOf(b));
    EXPECT_NE(c.probe(a), nullptr);
    EXPECT_NE(c.probe(d), nullptr);
}

TEST(Cache, EmptyWayUsedBeforeEviction)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1), b = mkAddr(g, 0, 2);
    EXPECT_FALSE(c.fill(a, false, false).valid);
    EXPECT_FALSE(c.fill(b, false, false).valid);
    EXPECT_NE(c.probe(a), nullptr);
    EXPECT_NE(c.probe(b), nullptr);
}

TEST(Cache, VictimForMatchesSubsequentFill)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 1, 1), b = mkAddr(g, 1, 2),
             d = mkAddr(g, 1, 3);
    c.fill(a, false, false);
    c.fill(b, false, false);
    const CacheLine *victim = c.victimFor(d);
    ASSERT_NE(victim, nullptr);
    LineAddr predicted = g.recompose(victim->tag, g.setOf(d));
    FillResult ev = c.fill(d, false, false);
    EXPECT_EQ(ev.lineAddr, predicted);
}

TEST(Cache, VictimForNullWhenSetHasRoom)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    c.fill(mkAddr(g, 0, 1), false, false);
    EXPECT_EQ(c.victimFor(mkAddr(g, 0, 2)), nullptr);
}

TEST(Cache, ConflictBitStoredAndEvicted)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1);
    c.fill(a, true, false);
    EXPECT_TRUE(c.probe(a)->conflictBit);

    ByteAddr b = mkAddr(g, 0, 2), d = mkAddr(g, 0, 3);
    c.fill(b, false, false);
    FillResult ev = c.fill(d, false, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, g.lineOf(a));
    EXPECT_TRUE(ev.conflictBit);
}

TEST(Cache, StoreSetsDirtyAndEvictionReportsIt)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1);
    c.fill(a, false, false);
    c.access(a, true);   // dirtying store hit
    ByteAddr b = mkAddr(g, 0, 2), d = mkAddr(g, 0, 3);
    c.fill(b, false, false);
    FillResult ev = c.fill(d, false, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, FillWithStoreIsDirty)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    c.fill(mkAddr(g, 0, 1), false, true);
    EXPECT_TRUE(c.probe(mkAddr(g, 0, 1))->dirty);
}

TEST(Cache, InvalidateRemovesLine)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1);
    c.fill(a, false, false);
    EXPECT_TRUE(c.invalidate(a));
    EXPECT_EQ(c.probe(a), nullptr);
    EXPECT_FALSE(c.invalidate(a));
}

TEST(Cache, OccupancyTracksFills)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    EXPECT_EQ(c.occupancy(), 0u);
    c.fill(mkAddr(g, 0, 1), false, false);
    c.fill(mkAddr(g, 1, 1), false, false);
    EXPECT_EQ(c.occupancy(), 2u);
    c.invalidate(mkAddr(g, 0, 1));
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, ClearResetsEverything)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    c.fill(mkAddr(g, 0, 1), false, false);
    c.access(mkAddr(g, 0, 1), false);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.fills(), 0u);
}

TEST(Cache, FillWayPlacesExactly)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 7);
    c.fillWay(a, WayIndex{1}, true, false);
    EXPECT_TRUE(c.lineAt(SetIndex{0}, WayIndex{1}).valid);
    EXPECT_FALSE(c.lineAt(SetIndex{0}, WayIndex{0}).valid);
    EXPECT_EQ(c.lineAddrAt(SetIndex{0}, WayIndex{1}), g.lineOf(a));
    EXPECT_EQ(c.lineAddrAt(SetIndex{0}, WayIndex{0}),
              invalidLineAddr);
}

TEST(Cache, LineAtAllowsBitMutation)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1);
    c.fill(a, false, false);   // an empty set fills way 0
    c.lineAt(g.setOf(a), WayIndex{0}).conflictBit = true;
    ASSERT_NE(c.probe(a), nullptr);
    EXPECT_TRUE(c.probe(a)->conflictBit);
}

TEST(Cache, MissRateComputation)
{
    CacheGeometry g = tinyGeom();
    Cache c(g);
    ByteAddr a = mkAddr(g, 0, 1);
    c.access(a, false);          // miss
    c.fill(a, false, false);
    c.access(a, false);          // hit
    c.access(a, false);          // hit
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-9);
}

TEST(CacheDeath, FillWayOutOfRange)
{
    Cache c(tinyGeom());
    EXPECT_DEATH(c.fillWay(ByteAddr{0}, WayIndex{5}, false, false),
                 "out of range");
}

TEST(CacheDeath, LineAtOutOfRange)
{
    Cache c(tinyGeom());
    EXPECT_DEATH(c.lineAt(SetIndex{99}, WayIndex{0}),
                 "out of range");
}

/**
 * Property sweep: a direct-mapped cache of N lines, accessed with a
 * cyclic pattern of N+1 distinct lines mapping to distinct sets,
 * never hits (classic capacity thrash), while a pattern of N lines
 * always hits after warmup.
 */
class CacheThrash : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CacheThrash, ExactWorkingSetFits)
{
    std::size_t cache_bytes = GetParam();
    CacheGeometry g(cache_bytes, 1, 64);
    Cache c(g);
    std::size_t n = g.numLines();

    // Warmup: one pass over exactly n distinct lines.
    for (std::size_t i = 0; i < n; ++i) {
        ByteAddr a{i * 64};
        if (!c.access(a, false))
            c.fill(a, false, false);
    }
    // Every subsequent pass hits.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(c.access(ByteAddr{i * 64}, false));
    }
}

TEST_P(CacheThrash, AliasedLinesAlwaysMiss)
{
    std::size_t cache_bytes = GetParam();
    CacheGeometry g(cache_bytes, 1, 64);
    Cache c(g);
    // Two lines 1 cache-size apart ping-pong forever.
    ByteAddr a{0x40}, b = a.advancedBy(cache_bytes);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(c.access(a, false));
        c.fill(a, false, false);
        EXPECT_FALSE(c.access(b, false));
        c.fill(b, false, false);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheThrash,
                         ::testing::Values(1024, 4096, 16 * 1024));

/**
 * Reference-model property test: under a random access/fill/
 * invalidate mix, the cache's hit/miss outcomes and LRU choices
 * match a straightforward per-set model.
 */
class CacheModelCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(CacheModelCheck, MatchesReferenceModel)
{
    auto [bytes, assoc] = GetParam();
    CacheGeometry g(bytes, assoc, 64);
    Cache cache(g);

    // Reference: per set, a recency-ordered list (front = MRU).
    std::vector<std::list<LineAddr>> model(g.numSets());
    auto model_find = [&](LineAddr line) {
        auto &s = model[g.setOf(line).value()];
        return std::find(s.begin(), s.end(), line);
    };

    Pcg32 rng(77);
    for (int step = 0; step < 30000; ++step) {
        LineAddr line{(Addr(rng.below(64)) * bytes / 4) &
                      ~Addr{63}};
        auto &s = model[g.setOf(line).value()];
        switch (rng.below(4)) {
          case 0:
          case 1: {  // access
            bool hit = cache.access(line.asByte(), false);
            auto it = model_find(line);
            EXPECT_EQ(hit, it != s.end());
            if (it != s.end()) {
                s.erase(it);
                s.push_front(line);
            }
            break;
          }
          case 2: {  // fill (if not resident)
            if (model_find(line) != s.end())
                break;
            FillResult ev = cache.fill(line.asByte(), false, false);
            if (s.size() == assoc) {
                ASSERT_TRUE(ev.valid);
                EXPECT_EQ(ev.lineAddr, s.back());  // LRU victim
                s.pop_back();
            } else {
                EXPECT_FALSE(ev.valid);
            }
            s.push_front(line);
            break;
          }
          default: {  // invalidate
            bool had = model_find(line) != s.end();
            EXPECT_EQ(cache.invalidate(line.asByte()), had);
            if (had)
                s.erase(model_find(line));
            break;
          }
        }
    }

    // Final residency agrees exactly.
    std::size_t model_lines = 0;
    for (const auto &s : model) {
        model_lines += s.size();
        for (LineAddr line : s)
            EXPECT_NE(cache.probe(line.asByte()), nullptr);
    }
    EXPECT_EQ(cache.occupancy(), model_lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelCheck,
    ::testing::Combine(::testing::Values(std::size_t{1024},
                                         std::size_t{4096}),
                       ::testing::Values(1u, 2u, 4u)));

} // namespace
} // namespace ccm
