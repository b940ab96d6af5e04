#include "sim/sharded.hh"

#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "trace/vector_trace.hh"

namespace ccm
{

namespace
{

/** Microseconds each shard spent merging into the shared result. */
obs::Histogram &
shardMergeHistogram()
{
    static obs::Histogram &h =
        obs::MetricsRegistry::global().histogram(
            "ccm_shard_merge_us",
            "Per-shard merge time of sharded classification results");
    return h;
}

/** One shard's private output, prior to the merge. */
struct ShardState
{
    MemStats mem;
    SetHistograms heat;
    std::vector<obs::IntervalSample> intervals;
};

/**
 * Simulate shard @p shard of @p num_shards over the whole span.
 * Every memory reference advances the global reference counter (and
 * the interval-window clock); only references whose set the shard
 * owns touch the private cache/MCT.
 */
ShardState
runShard(const MemRecord *records, std::size_t count,
         const ShardedClassifyConfig &cfg, unsigned shard,
         unsigned num_shards)
{
    ClassifyKernel kernel(cfg);
    const CacheGeometry &geom = kernel.geometry();

    ShardState out;
    MemStats cur;      // running shard-local counters
    MemStats lastSnap; // counters at the last window boundary
    Count globalRef = 0;
    Count lastBoundary = 0;

    auto emitWindow = [&](Count upto) {
        obs::IntervalSample s;
        s.firstRef = lastBoundary + 1;
        s.lastRef = upto;
        s.delta = cur.minus(lastSnap);
        out.intervals.push_back(s);
        lastSnap = cur;
        lastBoundary = upto;
    };

    for (std::size_t i = 0; i < count; ++i) {
        const MemRecord &r = records[i];
        if (!r.isMem())
            continue;
        ++globalRef;
        if (geom.setOf(r.dataAddr()).value() % num_shards == shard)
            classifyCounted(kernel, r, cur);
        // Window boundaries are global-reference indices, so every
        // shard emits the same window sequence (zero deltas included)
        // and the merge is a plain window-index-wise sum.
        if (cfg.interval != 0 && globalRef % cfg.interval == 0)
            emitWindow(globalRef);
    }
    if (cfg.interval != 0 && globalRef > lastBoundary)
        emitWindow(globalRef);

    out.mem = cur;
    out.heat.sets = geom.numSets();
    out.heat.l1Misses = kernel.cache().setMissHistogram();
    out.heat.l1Evictions = kernel.cache().setEvictionHistogram();
    out.heat.mctLookups = kernel.directory().setLookupHistogram();
    out.heat.mctConflicts = kernel.directory().setConflictHistogram();
    return out;
}

/** Counter-wise sum of @p src into @p dst. */
void
addStats(MemStats &dst, const MemStats &src)
{
    MemStats::forEachField([&](const char *, Count MemStats::*f) {
        dst.*f += src.*f;
    });
}

/** Element-wise sum (dst adopts src's size on first merge). */
void
addHistogram(std::vector<Count> &dst, const std::vector<Count> &src)
{
    if (dst.empty()) {
        dst = src;
        return;
    }
    for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i)
        dst[i] += src[i];
}

/**
 * Fold one shard's output into the shared result.  Every operation
 * here is a commutative sum over disjoint or index-aligned state, so
 * the completion order of shards cannot change the merged bytes.
 */
void
mergeShard(ShardedClassifyResult &res, ShardState &&s)
{
    addStats(res.mem, s.mem);
    res.heat.sets = s.heat.sets;
    addHistogram(res.heat.l1Misses, s.heat.l1Misses);
    addHistogram(res.heat.l1Evictions, s.heat.l1Evictions);
    addHistogram(res.heat.mctLookups, s.heat.mctLookups);
    addHistogram(res.heat.mctConflicts, s.heat.mctConflicts);

    if (res.intervals.empty()) {
        res.intervals = std::move(s.intervals);
    } else {
        if (res.intervals.size() != s.intervals.size()) {
            ccm_panic("shard interval series disagree: ",
                      res.intervals.size(), " vs ",
                      s.intervals.size(), " windows");
        }
        for (std::size_t w = 0; w < s.intervals.size(); ++w) {
            MemStats sum = res.intervals[w].delta;
            addStats(sum, s.intervals[w].delta);
            res.intervals[w].delta = sum;
        }
    }
}

} // namespace

ShardedClassifyResult
runShardedClassify(const MemRecord *records, std::size_t count,
                   const ShardedClassifyConfig &cfg)
{
    // On the calling thread, so a bad config dies once rather than
    // in every shard's kernel constructor at the same time.
    fatalIfError(cfg.validate().withContext("sharded classify"));
    const unsigned shards = cfg.shards == 0 ? 1 : cfg.shards;

    ShardedClassifyResult res;
    res.shards = shards;
    res.interval = cfg.interval;

    if (shards == 1) {
        // The inline path runs the identical worker body, so K > 1
        // has a bit-exact sequential reference by construction.
        mergeShard(res, runShard(records, count, cfg, 0, 1));
    } else {
        Mutex mergeMu(LockRank::ShardMerge, "shard-merge");
        obs::Histogram &mergeUs = shardMergeHistogram();

        ThreadPool pool(shards);
        for (unsigned k = 0; k < shards; ++k) {
            pool.submit([&, k] {
                ShardState s =
                    runShard(records, count, cfg, k, shards);
                const auto t0 = std::chrono::steady_clock::now();
                {
                    MutexLock lock(mergeMu);
                    mergeShard(res, std::move(s));
                }
                mergeUs.observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
            });
        }
        pool.waitIdle();
    }

    res.references = res.mem.accesses;
    res.misses = res.mem.l1Misses;
    res.missRate = safeRatio(res.misses, res.references);
    return res;
}

ShardedClassifyResult
runShardedClassify(TraceSource &trace,
                   const ShardedClassifyConfig &cfg)
{
    VectorTrace captured = VectorTrace::capture(trace);
    return runShardedClassify(captured.records().data(),
                              captured.records().size(), cfg);
}

} // namespace ccm
