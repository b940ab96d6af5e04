#include "sim/sharded.hh"

#include <chrono>
#include <cstdint>
#include <utility>

#include "common/log.hh"
#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "trace/batch_reader.hh"

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

/**
 * The memory references of the sets one shard owns, in stream order:
 * each data address as is, plus a store bitmap (bit i set = reference
 * i is a store).  Keeping the whole address, not a shifted line number
 * with the store flag folded in, stays lossless at every valid line
 * size, 1 byte included.
 */
struct Bucket
{
    std::vector<Addr> addrs;
    std::vector<std::uint64_t> stores;

    void
    push(Addr addr, bool store)
    {
        const std::size_t i = addrs.size();
        if (i % 64 == 0)
            stores.push_back(0);
        stores.back() |= std::uint64_t{store} << (i % 64);
        addrs.push_back(addr);
    }

    bool
    isStore(std::size_t i) const
    {
        return (stores[i / 64] >> (i % 64)) & 1U;
    }
};

/**
 * A trace split by set: bucket k holds the references whose set
 * satisfies set % K == k, and each interval-window boundary records
 * where every bucket stood when the global reference count reached it.
 */
struct Partition
{
    std::vector<Bucket> buckets;
    /** Global reference index that closes window w. */
    std::vector<Count> windowEnds;
    /** cuts[w * K + k]: size of bucket k when window w closed. */
    std::vector<std::size_t> cuts;
    Count records = 0;    ///< trace records read, non-memory included
    Count references = 0; ///< memory references among them
};

/**
 * Builds a Partition in one streaming pass: non-memory records are
 * dropped, each memory reference goes to its set's bucket, and window
 * boundaries are stamped as the global reference count crosses them.
 */
class Partitioner
{
  public:
    /** Fatal on an invalid @p cfg; callers validate() first. */
    explicit Partitioner(const ShardedClassifyConfig &cfg)
        : geom_(cfg.cacheBytes, cfg.assoc, cfg.lineBytes),
          interval_(cfg.interval),
          nextBoundary_(cfg.interval != 0 ? cfg.interval
                                          : ~Count{0})
    {
        part_.buckets.resize(cfg.shards == 0 ? 1 : cfg.shards);
    }

    void
    add(const MemRecord *records, std::size_t count)
    {
        const std::size_t shards = part_.buckets.size();
        for (std::size_t i = 0; i < count; ++i) {
            const MemRecord &r = records[i];
            if (!r.isMem())
                continue;
            const std::size_t set = geom_.setOf(r.dataAddr()).value();
            part_.buckets[set % shards].push(r.addr, r.isStore());
            if (++part_.references == nextBoundary_)
                closeWindow();
        }
        part_.records += count;
    }

    /** Close the trailing partial window, if any, and hand over. */
    Partition
    finish()
    {
        const Count last =
            part_.windowEnds.empty() ? 0 : part_.windowEnds.back();
        if (interval_ != 0 && part_.references > last)
            closeWindow();
        return std::move(part_);
    }

  private:
    void
    closeWindow()
    {
        part_.windowEnds.push_back(part_.references);
        for (const Bucket &b : part_.buckets)
            part_.cuts.push_back(b.addrs.size());
        nextBoundary_ += interval_;
    }

    CacheGeometry geom_;
    Count interval_;
    Count nextBoundary_;
    Partition part_;
};

/** One shard's private output, prior to the merge. */
struct ShardState
{
    MemStats mem;
    SetHistograms heat;
    std::vector<obs::IntervalSample> intervals;
};

/**
 * Simulate shard @p shard over its own bucket.  Every shard emits the
 * full window sequence (zero deltas included) at the partition's
 * global boundaries, so the merge is a plain window-index-wise sum.
 */
ShardState
runShard(const Partition &part, const ShardedClassifyConfig &cfg,
         unsigned shard)
{
    ClassifyKernel kernel(cfg);
    const CacheGeometry &geom = kernel.geometry();
    const Bucket &bucket = part.buckets[shard];
    const std::size_t shards = part.buckets.size();

    ShardState out;
    MemStats cur;      // running shard-local counters
    MemStats lastSnap; // counters at the last window boundary
    Count lastBoundary = 0;
    std::size_t i = 0;

    auto runTo = [&](std::size_t end) {
        for (; i < end; ++i)
            classifyCounted(kernel, ByteAddr{bucket.addrs[i]},
                            bucket.isStore(i), cur);
    };

    for (std::size_t w = 0; w < part.windowEnds.size(); ++w) {
        runTo(part.cuts[w * shards + shard]);
        obs::IntervalSample s;
        s.firstRef = lastBoundary + 1;
        s.lastRef = part.windowEnds[w];
        s.delta = cur.minus(lastSnap);
        out.intervals.push_back(s);
        lastSnap = cur;
        lastBoundary = s.lastRef;
    }
    runTo(bucket.addrs.size());

    out.mem = cur;
    out.heat.sets = geom.numSets();
    out.heat.l1Misses = kernel.cache().setMissHistogram();
    out.heat.l1Evictions = kernel.cache().setEvictionHistogram();
    out.heat.mctLookups = kernel.mct().setLookupHistogram();
    out.heat.mctConflicts = kernel.mct().setConflictHistogram();
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

/** Run every shard over its bucket and merge the results. */
ShardedClassifyResult
classifyPartition(const Partition &part,
                  const ShardedClassifyConfig &cfg)
{
    const auto shards = static_cast<unsigned>(part.buckets.size());
    ShardedClassifyResult res;
    res.shards = shards;
    res.interval = cfg.interval;
    res.records = part.records;

    if (shards == 1) {
        // The inline path runs the identical worker body, so K > 1
        // has a bit-exact sequential reference by construction.
        mergeShard(res, runShard(part, cfg, 0));
    } else {
        Mutex mergeMu(LockRank::ShardMerge, "shard-merge");
        obs::Histogram &mergeUs = shardMergeHistogram();

        ThreadPool pool(shards);
        for (unsigned k = 0; k < shards; ++k) {
            pool.submit([&, k] {
                ShardState s = runShard(part, cfg, k);
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

/**
 * A partitioner for a validated @p cfg.  Validation runs here, on the
 * calling thread, so a bad config dies once rather than in every
 * shard's kernel constructor at the same time.
 */
Partitioner
makePartitioner(const ShardedClassifyConfig &cfg)
{
    fatalIfError(cfg.validate().withContext("sharded classify"));
    return Partitioner(cfg);
}

} // namespace

ShardedClassifyResult
runShardedClassify(const MemRecord *records, std::size_t count,
                   const ShardedClassifyConfig &cfg)
{
    Partitioner parts = makePartitioner(cfg);
    parts.add(records, count);
    return classifyPartition(parts.finish(), cfg);
}

ShardedClassifyResult
runShardedClassify(TraceSource &trace,
                   const ShardedClassifyConfig &cfg)
{
    Partitioner parts = makePartitioner(cfg);
    trace.reset();
    MemRecord chunk[maxTraceBatch];
    std::size_t got;
    while ((got = trace.nextBatch(chunk, maxTraceBatch)) > 0)
        parts.add(chunk, got);
    return classifyPartition(parts.finish(), cfg);
}

} // namespace ccm
