/**
 * @file
 * Bounded per-stream record queue: the backpressure point between a
 * connection reader thread (producer) and a stream's simulation
 * thread (consumer).
 *
 * Capacity is fixed at construction — this is the daemon's per-stream
 * memory bound.  When the queue is full the overflow policy decides:
 *
 *  - Block: push() waits for space.  The reader stops reading the
 *    socket, the kernel buffer fills, and the producer blocks — full
 *    end-to-end backpressure, no records lost.
 *  - Shed: push() accepts what fits and drops the rest, counting
 *    every shed record.  The stream keeps flowing at the cost of a
 *    gap (surfaced in the stream's stats; a stream with shed records
 *    can no longer be byte-identical to its batch run).
 *
 * Wake-ups are batched so a producer that outruns the consumer is not
 * woken for every pop.  A Block push that finds the ring full waits
 * until it has room for min(remaining, capacity/2 + 1) records; pop()
 * wakes a waiting producer only once more than half the ring is free,
 * which always satisfies that wait.  Each push wakes the consumer, and
 * pop() copies out in at most two contiguous runs.
 *
 * Lifecycle: closeInput() marks the clean end of input (consumers
 * drain the remainder, then pop() returns 0); abort() additionally
 * discards everything queued and unblocks both sides immediately
 * (drain kill and idle-TTL reaping).
 *
 * Locking contract (machine-checked, src/common/sync.hh): one
 * LockRank::ServeQueue mutex guards the ring and the counters; both
 * condvars wait on it.  Callers never hold the queue lock — every
 * entry point acquires and releases it internally (CCM_EXCLUDES).
 */

#ifndef CCM_SERVE_QUEUE_HH
#define CCM_SERVE_QUEUE_HH

#include <string_view>
#include <vector>

#include "common/status.hh"
#include "common/sync.hh"
#include "common/types.hh"
#include "trace/record.hh"

namespace ccm::serve
{

/** What to do with records arriving at a full queue. */
enum class OverflowPolicy
{
    Block, ///< stall the producer (lossless backpressure)
    Shed,  ///< drop the overflow (lossy, counted)
};

/** @return "block" / "shed". */
const char *toString(OverflowPolicy p);

/** Parse a --policy argument ("block" | "shed"). */
Expected<OverflowPolicy> parseOverflowPolicy(std::string_view name);

/** Counters snapshot; consistent (taken under the queue lock). */
struct QueueStats
{
    Count pushed = 0;   ///< records accepted into the queue
    Count popped = 0;   ///< records handed to the consumer
    Count shed = 0;     ///< records dropped by the Shed policy
    Count maxDepth = 0; ///< high-water mark of queued records
};

/** Fixed-capacity MPSC record ring (one lock, two condvars). */
class RecordQueue
{
  public:
    RecordQueue(std::size_t capacity, OverflowPolicy policy);

    std::size_t capacity() const { return cap; }
    OverflowPolicy policy() const { return policy_; }

    /**
     * Enqueue @p n records in order.  Blocks for space under the
     * Block policy; sheds the overflow otherwise.  @return records
     * accepted (always n for Block unless input was closed/aborted
     * mid-wait, in which case the rest is discarded).
     */
    std::size_t push(const MemRecord *recs, std::size_t n)
        CCM_EXCLUDES(mu);

    /**
     * Dequeue up to @p max records, blocking until at least one is
     * available or input has ended.  @return records produced; 0
     * means end-of-stream (input closed and drained, or aborted).
     */
    std::size_t pop(MemRecord *out, std::size_t max) CCM_EXCLUDES(mu);

    /** No more input; consumers drain the remainder. */
    void closeInput() CCM_EXCLUDES(mu);

    /** Discard queued records and unblock both sides immediately. */
    void abort() CCM_EXCLUDES(mu);

    bool
    aborted() const CCM_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return aborted_;
    }

    QueueStats
    stats() const CCM_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return stats_;
    }

    /** Records queued right now (the reaper's depth-gauge sample). */
    std::size_t
    depth() const CCM_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return count;
    }

  private:
    /** Copy a contiguous run of @p n records in at the tail. */
    void enqueueRun(const MemRecord *recs, std::size_t n)
        CCM_REQUIRES(mu);

    const std::size_t cap;
    const OverflowPolicy policy_;

    mutable Mutex mu{LockRank::ServeQueue, "serve-queue"};
    CondVar canPush;
    CondVar canPop;

    std::vector<MemRecord> ring CCM_GUARDED_BY(mu);
    /** Index of the oldest queued record. */
    std::size_t head CCM_GUARDED_BY(mu) = 0;
    /** Queued records. */
    std::size_t count CCM_GUARDED_BY(mu) = 0;

    bool inputClosed CCM_GUARDED_BY(mu) = false;
    bool aborted_ CCM_GUARDED_BY(mu) = false;
    QueueStats stats_ CCM_GUARDED_BY(mu);
};

} // namespace ccm::serve

#endif // CCM_SERVE_QUEUE_HH
