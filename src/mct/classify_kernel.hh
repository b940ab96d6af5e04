/**
 * @file
 * The one cache + MCT classify step (paper §3): on a miss, classify
 * the incoming tag against the set's remembered evicted tags, fill
 * the line with that verdict as its conflict bit, and write the
 * victim's tag into the table.  classifyRun (the one loop that also
 * steps the three-C oracle), runShardedClassify (set-sharded),
 * interval replay and the page recoloring study all drive this
 * kernel, so the protocol — and any optimisation of it — lives here
 * once.  The kernel carries no hooks: event tracing observes the
 * timing lane's table (MissClassificationTable::setLookupHook).
 *
 * The kernel is header-inline: it sits in every classify hot loop.
 */

#ifndef CCM_MCT_CLASSIFY_KERNEL_HH
#define CCM_MCT_CLASSIFY_KERNEL_HH

#include <cstddef>

#include "cache/cache.hh"
#include "cache/geometry.hh"
#include "common/status.hh"
#include "mct/mct.hh"

namespace ccm
{

/** Cache + classifier shape shared by every classify configuration. */
struct ClassifyGeometry
{
    std::size_t cacheBytes = 16 * 1024;
    unsigned assoc = 1;
    unsigned lineBytes = 64;
    /** Stored-tag width; 0 = full tag. */
    unsigned mctTagBits = 0;
    /**
     * Evicted tags remembered per set.  1 = the paper's MCT; more
     * is the Stone/Pomerene shadow directory (§2/§3), which also
     * identifies higher-order conflict misses.
     */
    unsigned mctDepth = 1;

    /**
     * Check everything ClassifyKernel's constructor would reject: the
     * cache shape, then the classifier's depth and tag width.
     */
    Status
    validate() const
    {
        Expected<CacheGeometry> geom =
            CacheGeometry::make(cacheBytes, assoc, lineBytes);
        if (!geom.ok())
            return geom.status();
        return MissClassificationTable::validate(
            geom.value().numSets(), mctTagBits, mctDepth);
    }
};

/**
 * A private cache and MCT (of any depth) stepped one memory reference
 * at a time.  The hit test and the miss step are separate calls so a
 * caller can count hits, or step an oracle on every reference, with
 * no verdict to discard.
 */
class ClassifyKernel
{
  public:
    /** Fatal on an invalid @p g; callers validate() first. */
    explicit ClassifyKernel(const ClassifyGeometry &g)
        : geom_(g.cacheBytes, g.assoc, g.lineBytes), cache_(geom_),
          mct_(geom_.numSets(), g.mctTagBits, g.mctDepth)
    {
    }

    /** Hit test; on a hit, updates replacement and dirty state. */
    bool
    access(ByteAddr addr, bool is_store)
    {
        return cache_.access(addr, is_store);
    }

    /**
     * The miss step, after access() returned false: classify, fill
     * with the verdict as the line's conflict bit, and remember the
     * victim's tag (the MCT is written only with evicted tags).
     */
    MissClass
    miss(ByteAddr addr, bool is_store)
    {
        const SetIndex set = geom_.setOf(addr);
        const MissClass cls = mct_.classify(set, geom_.tagOf(addr));
        const FillResult ev =
            cache_.fill(addr, isConflict(cls), is_store);
        if (ev.valid)
            mct_.recordEviction(set, geom_.tagOf(ev.lineAddr));
        return cls;
    }

    const CacheGeometry &geometry() const { return geom_; }
    const Cache &cache() const { return cache_; }
    const MissClassificationTable &mct() const { return mct_; }

  private:
    CacheGeometry geom_;
    Cache cache_;
    MissClassificationTable mct_;
};

} // namespace ccm

#endif // CCM_MCT_CLASSIFY_KERNEL_HH
