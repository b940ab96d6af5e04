/**
 * @file
 * Event counters collected by the memory system — the raw numbers
 * behind Table 1 and Figures 3-7.
 *
 * MemStats::forEachField is the single authoritative (name, field)
 * enumeration: the text dump, the JSON sink and interval-delta
 * arithmetic all derive from it, so a counter added there
 * automatically appears in every output path under one canonical
 * name.
 */

#ifndef CCM_HIERARCHY_MEMSTATS_HH
#define CCM_HIERARCHY_MEMSTATS_HH

#include <cstddef>
#include <ostream>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ccm
{

/** Memory-system event counters. */
struct MemStats
{
    Count accesses = 0;
    Count loads = 0;
    Count stores = 0;

    Count l1Hits = 0;
    Count l1Misses = 0;

    /** Assist-buffer hits by entry source. */
    Count bufHitVictim = 0;
    Count bufHitPrefetch = 0;
    Count bufHitBypass = 0;

    Count l2Hits = 0;
    Count l2Misses = 0;

    /** MCT classification of misses that reached the fetch path. */
    Count conflictMisses = 0;
    Count capacityMisses = 0;

    /** Victim-cache accounting (Table 1). */
    Count swaps = 0;       ///< cache<->buffer line swaps
    Count victimFills = 0; ///< evicted lines inserted into the buffer

    /** Prefetch accounting (Figure 4). */
    Count prefIssued = 0;
    Count prefUseful = 0;
    Count prefDropped = 0;   ///< MSHRs full
    Count prefFiltered = 0;  ///< suppressed by conflict filter
    Count prefWasted = 0;    ///< evicted from the buffer unused

    /** Exclusion accounting (Figure 5). */
    Count excluded = 0;

    Count writebacks = 0;
    Count mshrStallCycles = 0;

    /** Pseudo-associative cache (§5.4). */
    Count pseudoPrimaryHits = 0;
    Count pseudoSecondaryHits = 0;
    Count pseudoOverrides = 0;

    /**
     * The one authoritative counter enumeration.  @p fn is called as
     * fn(const char *name, Count MemStats::*field) once per counter,
     * in dump order.
     */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        fn("accesses", &MemStats::accesses);
        fn("loads", &MemStats::loads);
        fn("stores", &MemStats::stores);
        fn("l1_hits", &MemStats::l1Hits);
        fn("l1_misses", &MemStats::l1Misses);
        fn("buf_hit_victim", &MemStats::bufHitVictim);
        fn("buf_hit_prefetch", &MemStats::bufHitPrefetch);
        fn("buf_hit_bypass", &MemStats::bufHitBypass);
        fn("l2_hits", &MemStats::l2Hits);
        fn("l2_misses", &MemStats::l2Misses);
        fn("conflict_misses", &MemStats::conflictMisses);
        fn("capacity_misses", &MemStats::capacityMisses);
        fn("swaps", &MemStats::swaps);
        fn("victim_fills", &MemStats::victimFills);
        fn("pref_issued", &MemStats::prefIssued);
        fn("pref_useful", &MemStats::prefUseful);
        fn("pref_dropped", &MemStats::prefDropped);
        fn("pref_filtered", &MemStats::prefFiltered);
        fn("pref_wasted", &MemStats::prefWasted);
        fn("excluded", &MemStats::excluded);
        fn("writebacks", &MemStats::writebacks);
        fn("mshr_stall_cycles", &MemStats::mshrStallCycles);
        fn("pseudo_primary_hits", &MemStats::pseudoPrimaryHits);
        fn("pseudo_secondary_hits", &MemStats::pseudoSecondaryHits);
        fn("pseudo_overrides", &MemStats::pseudoOverrides);
    }

    /**
     * Derived-ratio enumeration: fn(const char *name, double value).
     * Same contract as forEachField — every consumer (text dump, JSON
     * sink) gets the ratios from here instead of recomputing them.
     */
    template <typename Fn>
    void
    forEachDerived(Fn &&fn) const
    {
        fn("l1_hit_rate_pct", l1HitRatePct());
        fn("buf_hit_rate_pct", bufHitRatePct());
        fn("total_hit_rate_pct", totalHitRatePct());
        fn("miss_rate_pct", missRatePct());
        fn("conflict_share_pct", pct(conflictMisses, l1Misses));
        fn("swap_rate_pct", swapRatePct());
        fn("fill_rate_pct", fillRatePct());
        fn("pref_accuracy_pct", prefAccuracyPct());
        fn("pref_coverage_pct", prefCoveragePct());
    }

    // Derived --------------------------------------------------------
    Count bufHits() const
    {
        return bufHitVictim + bufHitPrefetch + bufHitBypass;
    }

    /** D$ hit rate, % of all accesses (Table 1 convention). */
    double l1HitRatePct() const { return pct(l1Hits, accesses); }

    /** Buffer hit rate, % of all accesses. */
    double bufHitRatePct() const { return pct(bufHits(), accesses); }

    /** Combined hit rate, % of all accesses. */
    double totalHitRatePct() const
    {
        return pct(l1Hits + bufHits(), accesses);
    }

    /** Misses that go to L2, % of all accesses. */
    double missRatePct() const
    {
        return pct(accesses - l1Hits - bufHits(), accesses);
    }

    double swapRatePct() const { return pct(swaps, accesses); }
    double fillRatePct() const { return pct(victimFills, accesses); }

    /** Prefetch accuracy: useful / issued. */
    double prefAccuracyPct() const
    {
        return pct(prefUseful, prefIssued);
    }

    /** Prefetch coverage: buffer prefetch hits / all L1 misses. */
    double prefCoveragePct() const
    {
        return pct(bufHitPrefetch, l1Misses);
    }

    /**
     * Write "mem.<stat> <value>" lines (gem5-style stats dump),
     * including every derived ratio so downstream consumers never
     * recompute them.
     */
    void dump(std::ostream &os, const char *prefix = "mem") const;

    /** Counter-wise this - prev (interval deltas). */
    MemStats minus(const MemStats &prev) const;
};

/**
 * Per-set activity histograms harvested from the cache and the MCT at
 * the end of a run — the raw data behind the hotspot/heatmap section
 * of the stats JSON.  Empty vectors mean the run had no L1 in the
 * classic sense (pseudo-associative mode) or histograms were not
 * collected.
 */
struct SetHistograms
{
    std::size_t sets = 0;              ///< number of L1 sets
    std::vector<Count> l1Misses;       ///< per-set L1 misses
    std::vector<Count> l1Evictions;    ///< per-set L1 evictions
    std::vector<Count> mctLookups;     ///< per-set MCT classifications
    std::vector<Count> mctConflicts;   ///< per-set conflict verdicts

    bool empty() const { return sets == 0; }
};

} // namespace ccm

#endif // CCM_HIERARCHY_MEMSTATS_HH
