#include "sim/sharded.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "common/log.hh"
#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "trace/batch_reader.hh"
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
    /**
     * Chunk-local reference index of each entry (its place among the
     * chunk's memory references), kept only when windows are cut.
     */
    std::vector<Count> refs;

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
 * One chunk of the input, split by set: bucket k holds the chunk's
 * references whose set satisfies set % K == k, in stream order.
 */
struct Chunk
{
    std::vector<Bucket> buckets;
    Count records = 0;    ///< trace records read, non-memory included
    Count references = 0; ///< memory references among them
};

/**
 * A trace split into C chunks x K buckets.  Shard k consumes buckets
 * (0, k) ... (C-1, k) in chunk order, which is its references in
 * stream order, and window w closes when its running position reaches
 * cuts[w * K + k].
 */
struct Partition
{
    std::vector<Chunk> chunks;
    std::size_t shards = 1; ///< K, buckets per chunk
    /** Global reference index that closes window w. */
    std::vector<Count> windowEnds;
    /** cuts[w * K + k]: shard k's position when window w closed. */
    std::vector<std::size_t> cuts;
    Count records = 0;    ///< trace records read, non-memory included
    Count references = 0; ///< memory references among them
};

/**
 * Builds one Chunk in one streaming pass: non-memory records are
 * dropped and each memory reference goes to its set's bucket, with
 * its chunk-local reference index when @p indexed (windows are cut
 * later, once every chunk's global offset is known).
 */
class Partitioner
{
  public:
    Partitioner(const CacheGeometry &geom, std::size_t shards,
                bool indexed)
        : geom_(geom), indexed_(indexed)
    {
        chunk_.buckets.resize(shards);
    }

    /** Add records at(0) ... at(count - 1). */
    template <typename RecordAt>
    void
    add(std::size_t count, RecordAt at)
    {
        const std::size_t shards = chunk_.buckets.size();
        for (std::size_t i = 0; i < count; ++i) {
            const MemRecord r = at(i);
            if (!r.isMem())
                continue;
            const std::size_t set = geom_.setOf(r.dataAddr()).value();
            Bucket &b = chunk_.buckets[set % shards];
            b.push(r.addr, r.isStore());
            if (indexed_)
                b.refs.push_back(chunk_.references);
            ++chunk_.references;
        }
        chunk_.records += count;
    }

    Chunk finish() { return std::move(chunk_); }

  private:
    CacheGeometry geom_;
    bool indexed_;
    Chunk chunk_;
};

/**
 * Join @p chunks, in stream order, into one Partition.  A prefix sum
 * over the chunks' reference counts gives each chunk its global
 * offset; every window boundary inside a chunk becomes per-shard
 * positions by counting each bucket's entries before it (the
 * chunk-local indices are sorted) and adding the sizes of the earlier
 * chunks' buckets.  The trailing partial window, if any, closes last.
 */
Partition
joinChunks(std::vector<Chunk> chunks, Count interval)
{
    Partition part;
    part.shards = chunks.front().buckets.size();
    std::vector<std::size_t> base(part.shards, 0);
    Count nextEnd = interval; // global reference index closing the next window
    for (const Chunk &c : chunks) {
        const Count first = part.references;
        for (; interval != 0 && nextEnd <= first + c.references;
             nextEnd += interval) {
            part.windowEnds.push_back(nextEnd);
            for (std::size_t k = 0; k < part.shards; ++k) {
                const std::vector<Count> &refs = c.buckets[k].refs;
                part.cuts.push_back(
                    base[k] + static_cast<std::size_t>(
                                  std::lower_bound(refs.begin(),
                                                   refs.end(),
                                                   nextEnd - first) -
                                  refs.begin()));
            }
        }
        for (std::size_t k = 0; k < part.shards; ++k)
            base[k] += c.buckets[k].addrs.size();
        part.records += c.records;
        part.references += c.references;
    }
    const Count last =
        part.windowEnds.empty() ? 0 : part.windowEnds.back();
    if (interval != 0 && part.references > last) {
        part.windowEnds.push_back(part.references);
        part.cuts.insert(part.cuts.end(), base.begin(), base.end());
    }
    part.chunks = std::move(chunks);
    return part;
}

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
         std::size_t shard)
{
    ClassifyKernel kernel(cfg);
    const CacheGeometry &geom = kernel.geometry();

    ShardState out;
    MemStats cur;      // running shard-local counters
    MemStats lastSnap; // counters at the last window boundary
    Count lastBoundary = 0;
    std::size_t pos = 0;  // shard position across all chunks
    std::size_t c = 0;    // current chunk
    std::size_t base = 0; // shard position at chunk c's start

    auto runTo = [&](std::size_t end) {
        while (pos < end) {
            const Bucket &bucket = part.chunks[c].buckets[shard];
            const std::size_t stop =
                std::min(end, base + bucket.addrs.size());
            for (std::size_t i = pos - base; i < stop - base; ++i)
                classifyCounted(kernel, ByteAddr{bucket.addrs[i]},
                                bucket.isStore(i), cur);
            pos = stop;
            if (pos == base + bucket.addrs.size() && pos < end) {
                base = pos;
                ++c;
            }
        }
    };

    for (std::size_t w = 0; w < part.windowEnds.size(); ++w) {
        runTo(part.cuts[w * part.shards + shard]);
        obs::IntervalSample s;
        s.firstRef = lastBoundary + 1;
        s.lastRef = part.windowEnds[w];
        s.delta = cur.minus(lastSnap);
        out.intervals.push_back(s);
        lastSnap = cur;
        lastBoundary = s.lastRef;
    }
    std::size_t total = 0;
    for (const Chunk &chunk : part.chunks)
        total += chunk.buckets[shard].addrs.size();
    runTo(total);

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

/**
 * Where one run executes.  K shards own min(K, sets) buckets (set %
 * K is the same partition either way: surplus shards own no set and
 * would contribute zero), and the shards and the chunks of the
 * partition run on min(buckets, hardware threads) workers.  One
 * bucket runs inline.
 */
class ShardPlan
{
  public:
    /**
     * Validation runs here, on the calling thread, so a bad config
     * dies once rather than in every shard's kernel constructor at
     * the same time.
     */
    explicit ShardPlan(const ShardedClassifyConfig &cfg)
        : cfg_(cfg), geom_(checkedGeometry(cfg)),
          shards_(std::max(cfg.shards, 1U)),
          buckets_(std::min<std::size_t>(shards_, geom_.numSets())),
          workers_(std::min(buckets_, resolveJobCount(0)))
    {}

    /**
     * Partition @p trace: each piece of it is read from its own start
     * by its own Partitioner, in one pass; joinChunks then cuts the
     * windows.
     */
    Partition
    partition(TraceSource &trace) const
    {
        const bool indexed = cfg_.interval != 0;
        std::vector<Chunk> parts =
            mapChunks(trace, workers_, [&](ChunkReader &r) {
                Partitioner p(geom_, buckets_, indexed);
                MemRecord batch[maxTraceBatch];
                std::size_t got;
                while ((got = r.read(batch, maxTraceBatch)) > 0)
                    p.add(got, [&](std::size_t i) { return batch[i]; });
                return p.finish();
            });
        // An empty trace is one empty chunk, so the join sees K buckets.
        if (parts.empty())
            parts.push_back(Partitioner(geom_, buckets_, indexed).finish());
        return joinChunks(std::move(parts), cfg_.interval);
    }

    /** Run every shard over its buckets and merge the results. */
    ShardedClassifyResult
    classify(const Partition &part) const
    {
        ShardedClassifyResult res;
        res.shards = shards_;
        res.interval = cfg_.interval;
        res.records = part.records;

        // The inline path runs the identical worker body, so K > 1
        // has a bit-exact sequential reference by construction.
        Mutex mergeMu(LockRank::ShardMerge, "shard-merge");
        obs::Histogram &mergeUs = shardMergeHistogram();
        forEachIndex(part.shards, workers_, [&](std::size_t k) {
            ShardState s = runShard(part, cfg_, k);
            const auto t0 = std::chrono::steady_clock::now();
            {
                MutexLock lock(mergeMu);
                mergeShard(res, std::move(s));
            }
            if (buckets_ > 1)
                mergeUs.observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
        });

        res.references = res.mem.accesses;
        res.misses = res.mem.l1Misses;
        res.missRate = safeRatio(res.misses, res.references);
        return res;
    }

  private:
    static CacheGeometry
    checkedGeometry(const ShardedClassifyConfig &cfg)
    {
        fatalIfError(cfg.validate().withContext("sharded classify"));
        return CacheGeometry(cfg.cacheBytes, cfg.assoc, cfg.lineBytes);
    }

    const ShardedClassifyConfig &cfg_;
    CacheGeometry geom_;
    unsigned shards_;
    std::size_t buckets_;
    std::size_t workers_;
};

} // namespace

ShardedClassifyResult
runShardedClassify(const MemRecord *records, std::size_t count,
                   const ShardedClassifyConfig &cfg)
{
    SpanTrace span(records, count);
    return runShardedClassify(span, cfg);
}

ShardedClassifyResult
runShardedClassify(TraceSource &trace,
                   const ShardedClassifyConfig &cfg)
{
    const ShardPlan plan(cfg);
    return plan.classify(plan.partition(trace));
}

} // namespace ccm
