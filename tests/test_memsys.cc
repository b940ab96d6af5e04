/**
 * @file
 * Behavioural tests for the memory system: latencies, MSHR behaviour,
 * and the policy mechanics of every §5 architecture, on hand-crafted
 * access sequences against small caches.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "hierarchy/memsys.hh"

namespace ccm
{
namespace
{

/** Small, fast-to-warm machine for unit testing. */
MemSysConfig
smallConfig()
{
    MemSysConfig cfg;
    cfg.l1Bytes = 1024;          // 16 sets
    cfg.l2Bytes = 64 * 1024;
    cfg.bufEntries = 4;
    return cfg;
}

constexpr Addr setStride = 1024;   // L1-size alias distance

TEST(MemSys, L1HitLatencyIsOneCycle)
{
    MemorySystem m(smallConfig());
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);             // cold miss
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 500);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.ready, 501u);
    EXPECT_EQ(m.stats().l1Hits, 1u);
    EXPECT_EQ(m.stats().l1Misses, 1u);
}

TEST(MemSys, ColdMissGoesToMemory)
{
    MemSysConfig cfg = smallConfig();
    MemorySystem m(cfg);
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    EXPECT_FALSE(r.l1Hit);
    // bank at 0, fetch starts at 1, bus grants at 1, + memLatency.
    EXPECT_EQ(r.ready, 1 + cfg.memLatency);
    EXPECT_EQ(m.stats().l2Misses, 1u);
}

TEST(MemSys, L2HitIsFast)
{
    MemSysConfig cfg = smallConfig();
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);         // memory fetch, fills L2+L1
    // Evict 0x40 from L1 with an alias...
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);
    // ...then re-access it: L1 miss, L2 hit.
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.ready, 401 + cfg.l2Latency);
    EXPECT_EQ(m.stats().l2Hits, 1u);
}

TEST(MemSys, SameLineAccessDuringFetchHitsOnce)
{
    // Fill-at-access approximation: a second access to an in-flight
    // line is an L1 hit (its retirement is serialized behind the
    // first load by the in-order ROB anyway), and no second fetch is
    // issued.
    MemSysConfig cfg = smallConfig();
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    AccessResult second = m.access(ByteAddr{0}, ByteAddr{0x48}, false, 3);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(m.stats().l2Misses, 1u);
    EXPECT_EQ(m.stats().l2Hits, 0u);
}

TEST(MemSys, DemandHitOnInFlightPrefetchWaitsForData)
{
    // The MSHR-tracked completion of a prefetch bounds a demand hit
    // on its buffer entry: data can't be consumed before it arrives.
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    MemorySystem m(cfg);
    AccessResult miss = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);  // prefetch 0x80
    // Touch the prefetched line immediately: buffer hit, but the
    // data is still in flight.
    AccessResult hit = m.access(ByteAddr{0}, ByteAddr{0x80}, false, 2);
    EXPECT_TRUE(hit.bufHit);
    EXPECT_GE(hit.ready, miss.ready - 10);  // ~prefetch completion
    EXPECT_GT(hit.ready, 10u);              // not a 1-cycle hit
}

TEST(MemSys, MshrFullStallsDemandMisses)
{
    MemSysConfig cfg = smallConfig();
    cfg.mshrs = 1;
    MemorySystem m(cfg);
    AccessResult a = m.access(ByteAddr{0}, ByteAddr{0x040}, false, 0);
    AccessResult b = m.access(ByteAddr{0}, ByteAddr{0x080}, false, 1);
    // The second miss waits for the first fetch to complete.
    EXPECT_GE(b.ready, a.ready + cfg.memLatency);
    EXPECT_GT(m.stats().mshrStallCycles, 0u);
}

TEST(MemSys, BankContentionDelaysSameBank)
{
    MemSysConfig cfg = smallConfig();
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);        // warm the line
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 500);      // bank busy at 500
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 500);  // same bank/cycle
    EXPECT_EQ(r.ready, 502u);           // pushed one cycle
}

TEST(MemSys, DifferentBanksDontConflict)
{
    MemSysConfig cfg = smallConfig();
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x80}, false, 0);        // different bank
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 500);
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x80}, false, 500);
    EXPECT_EQ(r.ready, 501u);
}

TEST(MemSys, DirtyEvictionWritesBack)
{
    MemorySystem m(smallConfig());
    m.access(ByteAddr{0}, ByteAddr{0x40}, true, 0);                 // dirty fill
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);  // evicts dirty line
    EXPECT_EQ(m.stats().writebacks, 1u);
}

TEST(MemSys, CleanEvictionDoesNot)
{
    MemorySystem m(smallConfig());
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);
    EXPECT_EQ(m.stats().writebacks, 0u);
}

TEST(MemSys, MissClassificationCountsMatch)
{
    MemorySystem m(smallConfig());
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);                     // capacity (cold)
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);       // capacity
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);                   // conflict!
    const MemStats &st = m.stats();
    EXPECT_EQ(st.conflictMisses, 1u);
    EXPECT_EQ(st.capacityMisses, 2u);
    EXPECT_EQ(st.conflictMisses + st.capacityMisses, st.l1Misses);
}

// ---- victim cache (§5.1) -------------------------------------------

TEST(Victim, TraditionalHitSwaps)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);  // evicts 0x40 -> buf
    EXPECT_EQ(m.stats().victimFills, 1u);

    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);
    EXPECT_TRUE(r.bufHit);
    EXPECT_LE(r.ready, 403u);                   // buffer-fast
    EXPECT_EQ(m.stats().bufHitVictim, 1u);
    EXPECT_EQ(m.stats().swaps, 1u);
    // After the swap, 0x40 is an L1 hit and the alias is in the
    // buffer.
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600).l1Hit);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 800).bufHit);
}

TEST(Victim, NoSwapPolicyLeavesLineInBuffer)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    cfg.victim.filterSwaps = true;
    cfg.victim.filter = ConflictFilter::Or;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);  // conflict miss
    EXPECT_TRUE(r.bufHit);
    EXPECT_EQ(m.stats().swaps, 0u);
    // The line is still in the buffer, not the cache.
    EXPECT_FALSE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600).l1Hit);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600).bufHit);
}

TEST(Victim, FillFilterSkipsCapacityEvictions)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    cfg.victim.filterFills = true;
    cfg.victim.filter = ConflictFilter::Or;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    // Cold alias miss: classified capacity, evicted line's bit clear
    // -> or-filter says don't fill.
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);
    EXPECT_EQ(m.stats().victimFills, 0u);
    EXPECT_FALSE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400).bufHit);
}

TEST(Victim, FillFilterAllowsConflictEvictions)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    cfg.victim.filterFills = true;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);   // capacity: no fill
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);               // conflict: fills
    EXPECT_EQ(m.stats().victimFills, 1u);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 600).bufHit);
}

TEST(Victim, StoreHitInBufferDirtiesEntry)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    cfg.victim.filterSwaps = true;
    cfg.bufEntries = 1;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);   // 0x40 -> buffer
    m.access(ByteAddr{0}, ByteAddr{0x40}, true, 400);                // store, buffer hit
    // Displace the buffer entry: its dirtiness forces a writeback.
    m.access(ByteAddr{0}, ByteAddr{0x40 + 2 * setStride}, false, 600);
    m.access(ByteAddr{0}, ByteAddr{0x40 + 3 * setStride}, false, 800);
    EXPECT_GE(m.stats().writebacks, 1u);
}

// ---- next-line prefetcher (§5.2) -----------------------------------

TEST(Prefetch, MissTriggersNextLinePrefetch)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    EXPECT_EQ(m.stats().prefIssued, 1u);
    // The next line is a buffer hit, which promotes and streams on.
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x80}, false, 500);
    EXPECT_TRUE(r.bufHit);
    EXPECT_EQ(m.stats().bufHitPrefetch, 1u);
    EXPECT_EQ(m.stats().prefUseful, 1u);
    EXPECT_EQ(m.stats().prefIssued, 2u);   // 0xC0 now prefetched
    // Promoted line is now an L1 hit.
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x80}, false, 900).l1Hit);
}

TEST(Prefetch, NoPrefetchWhenNextLineCached)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x80}, false, 0);       // brings 0x80; prefetches 0xC0
    Count issued = m.stats().prefIssued;
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 300);     // next line 0x80 already in L1
    EXPECT_EQ(m.stats().prefIssued, issued);
}

TEST(Prefetch, DroppedWhenMshrsFull)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    cfg.mshrs = 1;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);   // demand takes the only MSHR
    EXPECT_EQ(m.stats().prefDropped, 1u);
    EXPECT_EQ(m.stats().prefIssued, 0u);
}

TEST(Prefetch, FilterSuppressesConflictMissPrefetch)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    cfg.prefetch.filtered = true;
    cfg.prefetch.filter = ConflictFilter::Out;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);                   // capacity: pf
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 300);     // capacity: pf
    Count issued = m.stats().prefIssued;
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600);                 // conflict: no pf
    EXPECT_EQ(m.stats().prefIssued, issued);
    EXPECT_EQ(m.stats().prefFiltered, 1u);
}

TEST(Prefetch, WastedPrefetchCounted)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PrefetchBuffer;
    cfg.bufEntries = 1;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x040}, false, 0);     // prefetches 0x080 into 1-entry
    m.access(ByteAddr{0}, ByteAddr{0x400}, false, 300);   // prefetches 0x440, evicting it
    EXPECT_EQ(m.stats().prefWasted, 1u);
}

// ---- cache exclusion (§5.3) ----------------------------------------

TEST(Exclude, CapacityMissesBypassToBuffer)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::Capacity;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);     // capacity -> buffer, not L1
    EXPECT_EQ(m.stats().excluded, 1u);
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x48}, false, 300);
    EXPECT_TRUE(r.bufHit);
    EXPECT_EQ(m.stats().bufHitBypass, 1u);
    EXPECT_FALSE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600).l1Hit);
}

TEST(Exclude, MctInsertFixEnablesLaterConflict)
{
    // §5.3: the bypassed line's tag goes into the MCT so its next
    // miss (once it ages out of the buffer) classifies as conflict
    // and gets cached normally.
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::Capacity;
    cfg.bufEntries = 1;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);          // excluded; MCT learns tag
    m.access(ByteAddr{0}, ByteAddr{0x400}, false, 300);       // displaces it from buffer
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600);        // conflict -> cached!
    EXPECT_EQ(m.stats().conflictMisses, 1u);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 900).l1Hit);
}

TEST(Exclude, WithoutInsertFixStaysCapacity)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::Capacity;
    cfg.exclude.mctInsertFix = false;
    cfg.bufEntries = 1;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x400}, false, 300);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600);        // still capacity: excluded
    EXPECT_EQ(m.stats().conflictMisses, 0u);
    EXPECT_EQ(m.stats().excluded, 3u);
}

TEST(Exclude, ConflictPolicyExcludesConflicts)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::Conflict;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);                  // capacity: cached
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 300);    // capacity: cached
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600);                // conflict: bypass
    EXPECT_EQ(m.stats().excluded, 1u);
    EXPECT_FALSE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 900).l1Hit);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 900).bufHit);
}

TEST(Exclude, TysonBypassesAlwaysMissingPc)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::TysonPc;
    MemorySystem m(cfg);
    // One pc streams through memory (always misses); another hammers
    // one hot line.
    Cycle t = 0;
    for (int i = 0; i < 16; ++i) {
        m.access(ByteAddr{0x400},
                 ByteAddr{Addr(0x100000) + i * 0x400}, false, t);
        m.access(ByteAddr{0x500}, ByteAddr{0x40}, false, t + 5);
        t += 10;
    }
    // The streaming pc's later misses were excluded.
    EXPECT_GT(m.stats().excluded, 0u);
    // The hot pc's line stayed cached.
    EXPECT_TRUE(m.access(ByteAddr{0x500}, ByteAddr{0x40}, false, t).l1Hit);
}

TEST(Exclude, MatBypassesColdRegionAgainstHotVictim)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::BypassBuffer;
    cfg.exclude.algo = ExcludeAlgo::Mat;
    MemorySystem m(cfg);
    // Make region of 0x40 hot.
    for (int i = 0; i < 50; ++i)
        m.access(ByteAddr{0}, ByteAddr{0x40}, false, i * 10);
    // A cold alias misses: the MAT protects the hot resident.
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 1000);
    EXPECT_EQ(m.stats().excluded, 1u);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 1500).l1Hit);
}

// ---- adaptive miss buffer (§5.5) -----------------------------------

TEST(Amb, VictPrefSplitsByMissClass)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::Amb;
    cfg.amb.victimConflicts = true;
    cfg.amb.prefetchCapacity = true;
    MemorySystem m(cfg);

    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);    // capacity: prefetch 0x80
    EXPECT_EQ(m.stats().prefIssued, 1u);
    EXPECT_EQ(m.stats().victimFills, 0u);

    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 300);  // capacity: no fill
    EXPECT_EQ(m.stats().victimFills, 0u);
    EXPECT_EQ(m.stats().prefIssued, 2u);   // capacity: prefetches too

    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 600);  // conflict: evictee to buffer
    EXPECT_EQ(m.stats().victimFills, 1u);
    // Conflict misses don't prefetch.
    EXPECT_EQ(m.stats().prefIssued, 2u);

    // The victim entry serves later without a swap.
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 900);
    EXPECT_TRUE(r.bufHit);
    EXPECT_EQ(m.stats().swaps, 0u);
}

TEST(Amb, PrefExclTransitionsPrefetchHitToBypass)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::Amb;
    cfg.amb.prefetchCapacity = true;
    cfg.amb.excludeCapacity = true;
    MemorySystem m(cfg);

    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);     // capacity: excluded + prefetch
    EXPECT_EQ(m.stats().excluded, 1u);
    EXPECT_EQ(m.stats().prefIssued, 1u);

    // Hit on the prefetched 0x80: stays in the buffer as a bypass
    // entry (§5.5 transition), so it's a buffer hit again later.
    m.access(ByteAddr{0}, ByteAddr{0x80}, false, 500);
    EXPECT_EQ(m.stats().bufHitPrefetch, 1u);
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x80}, false, 800);
    EXPECT_TRUE(r.bufHit);
    EXPECT_EQ(m.stats().bufHitBypass, 1u);
    EXPECT_FALSE(r.l1Hit);
}

TEST(Amb, VicPreExcCombinesAll)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::Amb;
    cfg.amb.victimConflicts = true;
    cfg.amb.prefetchCapacity = true;
    cfg.amb.excludeCapacity = true;
    MemorySystem m(cfg);

    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);      // capacity: exclude + prefetch
    EXPECT_EQ(m.stats().excluded, 1u);
    EXPECT_EQ(m.stats().prefIssued, 1u);
    // 0x40 displaced from the buffer eventually misses as conflict
    // (insert fix) and is cached; its eviction victim-fills.
    m.access(ByteAddr{0}, ByteAddr{0x400}, false, 300);
    m.access(ByteAddr{0}, ByteAddr{0x440}, false, 400);
    m.access(ByteAddr{0}, ByteAddr{0x480}, false, 500);
    m.access(ByteAddr{0}, ByteAddr{0x4C0}, false, 600);   // 4-entry buffer fully churned
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 900);    // conflict: cached in L1
    EXPECT_GE(m.stats().conflictMisses, 1u);
    EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 1200).l1Hit);
}

// ---- pseudo-associative mode (§5.4) --------------------------------

TEST(PseudoMode, SecondaryHitCostsExtraCycle)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PseudoAssoc;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);   // demotes 0x40
    AccessResult r = m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.ready, 400 + cfg.l1HitLatency +
                           cfg.pseudoSecondaryPenalty);
    EXPECT_EQ(m.stats().pseudoSecondaryHits, 1u);
    EXPECT_EQ(m.stats().swaps, 1u);
}

TEST(PseudoMode, AliasedPairCoexists)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::PseudoAssoc;
    MemorySystem m(cfg);
    m.access(ByteAddr{0}, ByteAddr{0x40}, false, 0);
    m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 200);
    Count misses = m.stats().l1Misses;
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(m.access(ByteAddr{0}, ByteAddr{0x40}, false, 400 + i * 50).l1Hit);
        EXPECT_TRUE(
            m.access(ByteAddr{0}, ByteAddr{0x40 + setStride}, false, 420 + i * 50).l1Hit);
    }
    EXPECT_EQ(m.stats().l1Misses, misses);
}

// ---- global invariants ---------------------------------------------

TEST(MemSys, AccessCountsAreConsistent)
{
    MemSysConfig cfg = smallConfig();
    cfg.mode = AssistMode::VictimCache;
    MemorySystem m(cfg);
    Cycle t = 0;
    for (Addr a = 0; a < 64; ++a) {
        m.access(ByteAddr{0}, ByteAddr{(a * 0x39C0) & 0xFFFF},
                 a % 3 == 0, t);
        t += 7;
    }
    const MemStats &st = m.stats();
    EXPECT_EQ(st.accesses, 64u);
    EXPECT_EQ(st.loads + st.stores, st.accesses);
    EXPECT_EQ(st.l1Hits + st.l1Misses, st.accesses);
    EXPECT_LE(st.bufHits(), st.l1Misses);
    EXPECT_EQ(st.conflictMisses + st.capacityMisses, st.l1Misses);
    EXPECT_NEAR(st.l1HitRatePct() + st.bufHitRatePct() +
                    st.missRatePct(),
                100.0, 1e-9);
}

// ---- validate(MemSysConfig) against the constructor ----------------

/** @p text as a POSIX regex that matches it literally. */
std::string
literalRegex(const std::string &text)
{
    std::string re;
    for (char c : text) {
        if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos)
            re.push_back('\\');
        re.push_back(c);
    }
    return re;
}

TEST(MemSysValidate, AgreesWithTheConstructorOverAGrid)
{
    // Every assist mode (the prefetch buffer once per engine) over
    // good and bad values of each knob validate() checks.  A config
    // validate() accepts must construct; one it rejects must die in
    // the constructor with validate()'s message.  Each death test
    // forks, so only the first config per (mode, message) is forked:
    // the axes list their bad values first, so that one also has the
    // most other knobs bad and pins the order of the checks.
    struct Mode
    {
        AssistMode mode;
        PrefetchKind kind;
    };
    const Mode modes[] = {
        {AssistMode::None, PrefetchKind::NextLine},
        {AssistMode::VictimCache, PrefetchKind::NextLine},
        {AssistMode::PrefetchBuffer, PrefetchKind::NextLine},
        {AssistMode::PrefetchBuffer, PrefetchKind::Rpt},
        {AssistMode::BypassBuffer, PrefetchKind::NextLine},
        {AssistMode::Amb, PrefetchKind::NextLine},
        {AssistMode::PseudoAssoc, PrefetchKind::NextLine},
    };
    std::set<std::pair<std::size_t, std::string>> forked;
    std::size_t valid = 0;
    for (std::size_t m = 0; m < std::size(modes); ++m)
    for (std::size_t l1 : {3 * 1024, 16 * 1024})
    for (unsigned assoc : {0u, 2u, 1u})
    for (unsigned line : {60u, 64u})
    for (std::size_t l2 : {7 * 1024, 1024 * 1024})
    for (unsigned bits : {65u, 0u})
    for (unsigned buf : {0u, 8u})
    for (std::size_t rpt : {100, 256}) {
        MemSysConfig cfg;
        cfg.mode = modes[m].mode;
        cfg.prefetch.kind = modes[m].kind;
        cfg.l1Bytes = l1;
        cfg.l1Assoc = assoc;
        cfg.lineBytes = line;
        cfg.l2Bytes = l2;
        cfg.mctTagBits = bits;
        cfg.bufEntries = buf;
        cfg.prefetch.rptEntries = rpt;
        const Status s = validate(cfg);
        if (s.isOk()) {
            MemorySystem built(cfg);
            EXPECT_EQ(built.mct().numSets(), l1 / line / assoc);
            ++valid;
            continue;
        }
        EXPECT_EQ(s.code(), ErrorCode::BadConfig);
        if (forked.emplace(m, s.message()).second) {
            EXPECT_DEATH(MemorySystem{cfg}, literalRegex(s.message()))
                << "mode " << m << ": " << s.message();
        }
    }
    // Valid: L1 16 KB, 64 B lines, L2 1 MB, full MCT tags, assoc 1
    // or 2 (pseudo: 1), buffer and RPT sizes free where the mode has
    // no such structure: 8 + 4 + 4 + 2 + 4 + 4 + 4.
    EXPECT_EQ(valid, 30u);
    // Five messages every mode can hit (L1 size, line size, assoc,
    // L2 size, MCT bits), plus the pseudo geometry, the buffer size
    // and the RPT size where they apply: 5 + 6 * 5 + 7.
    EXPECT_EQ(forked.size(), 42u);
}

} // namespace
} // namespace ccm
