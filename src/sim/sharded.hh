/**
 * @file
 * Set-sharded classification: the raw-speed path for the cache + MCT
 * classify pipeline (no timing model, no oracle).
 *
 * A set-indexed cache never moves a line between sets, and the MCT is
 * likewise per-set state, so the classify pipeline factors exactly
 * along the set index: shard k simulates only the references whose
 * set satisfies set % K == k, against a private Cache + MCT, and no
 * other shard can observe or perturb it.
 *
 * The input is read once, by a partition pass that drops non-memory
 * records and appends each memory reference (address plus store bit)
 * to its shard's bucket.  The pass reads through mapChunks
 * (trace/source.hh): an input with a view (a record span, a packed or
 * delta trace file) is partitioned one view chunk per task, each chunk
 * into its own K buckets; a source without a view (a generator) is one
 * chunk, partitioned on the calling thread as it is read.  With an
 * interval, each bucket entry also keeps its chunk-local reference
 * index, and the join cuts every global window boundary into
 * per-bucket positions once a prefix sum over the chunks' reference
 * counts has placed each chunk, so no chunk is decoded twice.  With C
 * chunks, shard k then runs over buckets (0, k) ... (C-1, k) in chunk
 * order, which is its references in stream order, and emits its
 * windows at the cut positions, so all shards agree on the global
 * window sequence without ever seeing each other's references.
 *
 * Threads: K shards own min(K, sets) buckets (surplus shards would own
 * no set); the partition and the shards each run on min(buckets,
 * hardware threads) workers (forEachIndex, common/thread_pool.hh).
 * With one bucket everything runs inline on the calling thread.
 *
 * Merge contract (mirrors the suite runner's delivery contract,
 * docs/PERFORMANCE.md "Sharded classification"):
 *  1. every merged quantity is a commutative, associative sum —
 *     counter-wise for MemStats, element-wise for heat histograms,
 *     window-index-wise for interval deltas — so merge order cannot
 *     change the result;
 *  2. workers merge under one LockRank::ShardMerge mutex, taken only
 *     inside forEachIndex tasks (below ThreadPool's own leaf lock
 *     ordering concerns: the pool lock is released while tasks run);
 *  3. the output for any K is bit-identical to shards == 1, which
 *     runs the very same worker body inline — enforced by tests and
 *     the ci.sh sharded-determinism gate.
 *
 * What sharding deliberately drops: the oracle (a global fully
 * associative LRU whose verdicts depend on the interleaved stream)
 * and the timing model (MSHR/bus contention couple sets).  Both stay
 * sequential-only: ccm-sim takes --shards with --classify only, and
 * a classify suite runs its rows one after another, each sharded K
 * ways; --jobs spreads the rows of a timing suite instead.
 */

#ifndef CCM_SIM_SHARDED_HH
#define CCM_SIM_SHARDED_HH

#include <cstddef>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "hierarchy/memstats.hh"
#include "mct/classify_kernel.hh"
#include "obs/interval.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ccm
{

/** Parameters of one sharded classification run. */
struct ShardedClassifyConfig : ClassifyGeometry
{
    /**
     * Shard count K.  0 and 1 both mean "run the worker inline on the
     * calling thread"; any larger K is allowed (shards beyond the set
     * count own no sets, contribute zero to every sum and are not
     * run).
     */
    unsigned shards = 1;

    /**
     * Interval-sample window in memory references; 0 = no interval
     * series.  Boundaries are *global* reference indices, so the
     * merged series is window-aligned with a sequential run.
     */
    Count interval = 0;
};

/** Everything one sharded classification run produces. */
struct ShardedClassifyResult
{
    Count records = 0;    ///< trace records read, non-memory included
    Count references = 0; ///< memory references simulated
    Count misses = 0;     ///< L1 misses (== mem.l1Misses)
    double missRate = 0.0;

    /**
     * Classify-path counters on the MemStats schema (accesses, loads,
     * stores, l1Hits, l1Misses, conflictMisses, capacityMisses; the
     * timing-only counters stay zero).
     */
    MemStats mem;

    /** Per-set activity, summed across shards (disjoint by design). */
    SetHistograms heat;

    /** Interval series (empty when cfg.interval == 0). */
    std::vector<obs::IntervalSample> intervals;

    /** Window length the series was sampled at (cfg.interval). */
    Count interval = 0;

    unsigned shards = 1; ///< shard count K (0 reported as 1)
};

/**
 * One counted classify step: run the memory reference to @p addr
 * through @p kernel and tally it on the classify-path MemStats
 * counters.  The sharded engine and interval replay both count
 * through this.
 */
inline void
classifyCounted(ClassifyKernel &kernel, ByteAddr addr, bool store,
                MemStats &mem)
{
    ++mem.accesses;
    ++(store ? mem.stores : mem.loads);
    if (kernel.access(addr, store)) {
        ++mem.l1Hits;
        return;
    }
    ++mem.l1Misses;
    ++(isConflict(kernel.miss(addr, store)) ? mem.conflictMisses
                                            : mem.capacityMisses);
}

/**
 * Classify @p count records on cfg.shards shards.  The span is read
 * once, by the chunked partition pass, before any shard starts.  The
 * config
 * is validated on the calling thread first; an invalid one is fatal,
 * so entry points that take user input check
 * ClassifyGeometry::validate() first.
 */
ShardedClassifyResult runShardedClassify(
    const MemRecord *records, std::size_t count,
    const ShardedClassifyConfig &cfg);

/**
 * The same run fed from @p trace through mapChunks: a source with a
 * view is partitioned chunk by chunk in parallel; any other source is
 * reset and streamed batch by batch into one chunk.  No copy of the
 * trace is made either way, so a mapped trace is decoded once,
 * straight into the shards' buckets.
 */
ShardedClassifyResult runShardedClassify(
    TraceSource &trace, const ShardedClassifyConfig &cfg);

} // namespace ccm

#endif // CCM_SIM_SHARDED_HH
