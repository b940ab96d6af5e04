/**
 * @file
 * Shared-cache conflict study for multithreaded processors
 * (paper §5.6): threads dynamically sharing an L1 "are particularly
 * prone to high levels of conflict ... this problem cannot be solved
 * with software techniques because the conflicts are produced by
 * competition with other threads."
 *
 * The study runs an interleaved multi-thread trace through a shared
 * cache + MCT, attributing each conflict miss to the thread whose
 * line the matching evicted tag belonged to.  Cross-thread conflict
 * misses are exactly the co-scheduling signal the paper proposes:
 * "Jobs which produce an inordinate number of conflict misses when
 * scheduled together can be identified as bad candidates for
 * co-scheduling in the future."
 */

#ifndef CCM_MT_SHARED_CACHE_HH
#define CCM_MT_SHARED_CACHE_HH

#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "mct/mct.hh"
#include "mt/interleave.hh"

namespace ccm
{

/** Per-thread tallies from a shared-cache run. */
struct ThreadShareStats
{
    Count references = 0;
    Count misses = 0;
    Count conflictMisses = 0;
    /** Conflict misses whose matching evicted line belonged to
     *  another thread: inter-thread interference. */
    Count crossThreadConflicts = 0;

    double missRate() const { return safeRatio(misses, references); }
};

/** Whole-run results. */
struct SharedCacheResult
{
    std::vector<ThreadShareStats> perThread;
    Count references = 0;
    Count misses = 0;
    Count crossThreadConflicts = 0;

    double missRate() const { return safeRatio(misses, references); }

    /**
     * The paper's co-scheduling badness signal: the fraction of all
     * references that miss due to cross-thread conflicts.
     */
    double
    coScheduleBadness() const
    {
        return safeRatio(crossThreadConflicts, references);
    }
};

/** Functional shared-L1 conflict-attribution study. */
class SharedCacheStudy
{
  public:
    /**
     * @param cache_bytes shared L1 size
     * @param assoc shared L1 associativity
     * @param line_bytes line size
     */
    SharedCacheStudy(std::size_t cache_bytes = 16 * 1024,
                     unsigned assoc = 1, unsigned line_bytes = 64);

    /** Run @p trace (reset first) to completion. */
    SharedCacheResult run(InterleavedTrace &trace);

  private:
    CacheGeometry geom;
};

} // namespace ccm

#endif // CCM_MT_SHARED_CACHE_HH
