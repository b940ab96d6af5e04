/**
 * @file
 * Interval time-series sampling: snapshot delta-counters every N
 * memory references during a run, producing miss-rate and
 * conflict-fraction series instead of one end-of-run aggregate.
 * Interval-resolved statistics are what make cache studies
 * analyzable (Byrne 2018; Bueno et al. 2024) — conflict misses
 * cluster in phases, and aggregates hide that.
 *
 * Timing runs attach the sampler via MemorySystem::setAccessHook and
 * call onAccess() with the live MemStats; once the run ends,
 * RunOutput::adoptWindows flushes the residual window and moves the
 * series into the run's result, where documents read it.
 * runShardedClassify cuts the same IntervalSample windows itself, per
 * shard.  The ccm-serve streams are the one consumer that keeps a
 * sampler for the whole run: they publish its rolling window mid-run.
 *
 * Invariant: the counter-wise sum of every sample's delta equals the
 * final aggregate counters (tested in test_obs).
 */

#ifndef CCM_OBS_INTERVAL_HH
#define CCM_OBS_INTERVAL_HH

#include <utility>
#include <vector>

#include "hierarchy/memstats.hh"

namespace ccm::obs
{

/** One sampling window: [firstRef, lastRef] and its counter deltas. */
struct IntervalSample
{
    Count firstRef = 0;   ///< 1-based, inclusive
    Count lastRef = 0;    ///< 1-based, inclusive
    /** Counter deltas over the window (derived ratios apply). */
    MemStats delta;
};

/** Snapshots delta-counters every N references. */
class IntervalSampler
{
  public:
    /** @param every window length in memory references (>= 1) */
    explicit IntervalSampler(Count every)
        : every_(every == 0 ? 1 : every), nextBoundary(every_)
    {
    }

    Count every() const { return every_; }

    /**
     * Cap retained samples at @p max_samples, turning the sampler
     * into a rolling window: once full, emitting a new sample
     * discards the oldest (counted in droppedSamples()).  0 restores
     * the unbounded default.  Long-running consumers (the ccm-serve
     * streams) need this — an unbounded series on an endless stream
     * is an unbounded allocation.
     *
     * Note the sum-of-deltas == aggregate invariant only holds while
     * droppedSamples() == 0; validateStatsDoc skips the check for
     * rolling documents that declare drops.
     */
    void
    setRollingCapacity(std::size_t max_samples)
    {
        rollingCap = max_samples;
        trimToCap();
    }

    /** Samples discarded off the front of the rolling window. */
    Count droppedSamples() const { return dropped; }

    /**
     * Observe the live counters after one access (wire to
     * MemorySystem::setAccessHook).  Emits a sample whenever
     * cur.accesses crosses a window boundary.
     */
    void
    onAccess(const MemStats &cur)
    {
        if (cur.accesses >= nextBoundary)
            emit(cur);
    }

    /** Flush the final partial window against the run's end state. */
    void
    finish(const MemStats &final_stats)
    {
        if (final_stats.accesses > lastSnap.accesses)
            emit(final_stats);
    }

    const std::vector<IntervalSample> &samples() const
    {
        return samples_;
    }

    /** Hand the series over; the sampler keeps none of it. */
    std::vector<IntervalSample> takeSamples()
    {
        return std::exchange(samples_, {});
    }

  private:
    void
    emit(const MemStats &cur)
    {
        IntervalSample s;
        s.firstRef = lastSnap.accesses + 1;
        s.lastRef = cur.accesses;
        s.delta = cur.minus(lastSnap);
        samples_.push_back(s);
        trimToCap();
        lastSnap = cur;
        nextBoundary = cur.accesses + every_;
    }

    void
    trimToCap()
    {
        if (rollingCap == 0)
            return;
        while (samples_.size() > rollingCap) {
            samples_.erase(samples_.begin());
            ++dropped;
        }
    }

    Count every_;
    std::size_t rollingCap = 0; ///< 0 = keep every sample
    Count dropped = 0;          ///< samples evicted by the cap
    Count nextBoundary;       ///< next emit at or after this many refs
    MemStats lastSnap;        ///< counters at the last boundary
    std::vector<IntervalSample> samples_;
};

} // namespace ccm::obs

#endif // CCM_OBS_INTERVAL_HH
