/**
 * @file
 * The one cache + MCT classify step (paper §3): on a miss, classify
 * the incoming tag against the set's remembered evicted tags, fill
 * the line with that verdict as its conflict bit, and write the
 * victim's tag into the table.  classifyRun (oracle-bearing),
 * runShardedClassify (set-sharded) and interval replay all drive this
 * kernel, so the protocol — and any optimisation of it — lives here
 * once.
 *
 * The kernel is header-inline: it sits in every classify hot loop.
 */

#ifndef CCM_MCT_CLASSIFY_KERNEL_HH
#define CCM_MCT_CLASSIFY_KERNEL_HH

#include <cstddef>
#include <utility>

#include "cache/cache.hh"
#include "cache/geometry.hh"
#include "common/status.hh"
#include "mct/shadow.hh"

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
     * implements the Stone/Pomerene shadow directory (§2/§3), which
     * also identifies higher-order conflict misses.
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
        return ShadowDirectory::validate(geom.value().numSets(),
                                         mctDepth, mctTagBits);
    }
};

/**
 * A private cache and shadow directory (depth 1 = the MCT) stepped
 * one memory reference at a time.  The hit test and the miss step
 * are separate calls so a caller can observe the cache outcome before
 * the classifier's lookup hook fires.
 */
class ClassifyKernel
{
  public:
    /** Fatal on an invalid @p g; callers validate() first. */
    explicit ClassifyKernel(const ClassifyGeometry &g)
        : geom_(g.cacheBytes, g.assoc, g.lineBytes), cache_(geom_),
          mct_(geom_.numSets(), g.mctDepth, g.mctTagBits)
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

    /** Observe every classifier lookup (stored-tag event tracing). */
    void
    setLookupHook(MctLookupHook hook)
    {
        mct_.setLookupHook(std::move(hook));
    }

    const CacheGeometry &geometry() const { return geom_; }
    const Cache &cache() const { return cache_; }
    const ShadowDirectory &directory() const { return mct_; }

  private:
    CacheGeometry geom_;
    Cache cache_;
    ShadowDirectory mct_;
};

} // namespace ccm

#endif // CCM_MCT_CLASSIFY_KERNEL_HH
