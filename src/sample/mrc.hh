/**
 * @file
 * Single-pass miss-ratio-curve construction with SHARDS spatial
 * sampling (Byrne, "A Survey of Miss-Ratio Curve Construction
 * Techniques"; Waldspurger et al.'s SHARDS — see PAPERS.md).
 *
 * ## What one pass computes
 *
 * A fully-associative LRU cache of capacity c hits a reference iff
 * the reference's *stack distance* (its line's 1-based position in
 * the LRU stack) is <= c — Mattson's inclusion property.  So the miss
 * ratio at every capacity in a fixed grid falls out of one scan: the
 * profiler keeps one flat FaLru "bank" per curve point and counts the
 * references each bank misses.  Each bank operation is O(1) expected
 * (open-addressed hash + intrusive list; src/cache/fa_lru.hh), and
 * the grid has a fixed handful of points, so the per-reference cost
 * is O(points) = O(1) — not the naive O(N) Mattson list walk.  Each
 * bank runs in its own lane (thread), beside a lane that tracks the
 * sampled lines and windows and fixes the fixed-size variant's
 * halving schedule (below); the banks replay that schedule, so every
 * count and weighted sum is the one-walk pass's, bit for bit.
 *
 * ## SHARDS sampling
 *
 * A line is sampled iff hash(line) mod P < T (common/sample_hash.hh),
 * giving rate R = T/P.  Sampling lines (not references) preserves
 * per-line reuse exactly; the sampled trace behaves like the full
 * trace shrunk by R, so a sampled stack distance d estimates a true
 * distance d/R and the bank for true capacity C holds floor(C*R)
 * lines (a miss at capacity C is "d > C*R", and distances are
 * integers, so the test is exact — no capacity rounding error beyond
 * the floor).  Two variants:
 *
 *  - fixed-rate: T is constant; memory grows with the sampled
 *    working set;
 *  - fixed-size (SHARDS-adj): when the tracked-line set exceeds
 *    maxSampledLines, T halves and lines with bucket >= T are evicted
 *    from every bank, bounding memory at the cost of a coarser early
 *    history.  Each kept reference is weighted by 1/R_at_sample-time.
 *
 * The standard rate correction ("SHARDS-adj" in the literature) adds
 * the difference between expected (N*R) and actual weighted sampled
 * references to the hit side of every point — misses are measured,
 * total mass is corrected — which removes most of the bias of an
 * unlucky sample at low rates.
 *
 * Everything is deterministic: same records + config => identical
 * MrcResult bytes, any platform (the sampling hash is seedable and
 * bit-reproducible; no rand()/std::hash anywhere).
 */

#ifndef CCM_SAMPLE_MRC_HH
#define CCM_SAMPLE_MRC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ccm::sample
{

/** Which SHARDS flavour bounds the profiler's memory. */
enum class ShardsVariant
{
    FixedRate, ///< constant threshold, unbounded tracked set
    FixedSize, ///< threshold halves to cap the tracked set
};

/** @return "fixed-rate" / "fixed-size". */
const char *toString(ShardsVariant v);

/** Parameters of one MRC construction pass. */
struct MrcConfig
{
    /** Reuse granularity (power of two). */
    unsigned lineBytes = 64;

    /**
     * Cache capacities (bytes) the curve is evaluated at, ascending.
     * Empty = defaultCapacities().
     */
    std::vector<std::size_t> capacitiesBytes;

    /** Initial sampling rate in (0, 1]; 1.0 = exact (no sampling). */
    double rate = 0.01;

    /** Sample-set selector (common/sample_hash.hh). */
    std::uint64_t seed = 42;

    ShardsVariant variant = ShardsVariant::FixedRate;

    /** FixedSize only: tracked-line budget before T halves. */
    std::size_t maxSampledLines = 8192;

    /** Apply the standard expected-vs-actual mass correction. */
    bool rateCorrection = true;

    /**
     * Also record a per-window miss signature every this many memory
     * references (0 = off) — the cheap feature vectors the
     * representative-interval selector (intervals.hh) clusters.
     */
    Count windowRefs = 0;

    /**
     * Degenerate-footprint guard (0 = off).  Spatial sampling is only
     * sound when the sample holds enough distinct lines; a pass that
     * finishes with fewer than this many re-runs once at a
     * proportionally boosted rate (MrcResult::minLinesBoost reports
     * it).  The retry is deterministic and cheap exactly when it
     * triggers: a small footprint means small banks at any rate.
     */
    std::size_t minSampledLines = 512;

    /**
     * Ceiling for the boosted retry rate (the guard never exceeds
     * max(rate, maxBoostedRate)).  Tiny footprints would otherwise
     * demand near-exact rates and forfeit the sampling speedup; a
     * capped boost already multiplies the sample severalfold.
     */
    double maxBoostedRate = 0.08;
};

/** The default 16KB..8MB power-of-two capacity grid. */
std::vector<std::size_t> defaultCapacities();

/** One point of the curve. */
struct MrcPoint
{
    std::size_t capacityBytes = 0;
    std::size_t capacityLines = 0;
    /** Scaled bank size actually simulated: floor(lines * rate). */
    std::size_t bankLines = 0;
    /** Raw sampled references that missed this bank. */
    Count sampledMisses = 0;
    /** Rate-corrected miss-ratio estimate in [0, 1]. */
    double missRatio = 0.0;
};

/**
 * A point the replay can start from: `refs` memory references come
 * before `at`, a cursor of the scanned source's view.
 */
struct TraceCheckpoint
{
    Count refs = 0;
    TracePosition at;
};

/**
 * Per-window reuse/miss signature — the feature vector of one
 * fixed-length interval, produced when MrcConfig::windowRefs > 0.
 */
struct WindowSignature
{
    Count firstRef = 0; ///< 1-based, inclusive
    Count lastRef = 0;  ///< inclusive
    Count sampledRefs = 0;
    /** Sampled misses per curve point within this window. */
    std::vector<Count> sampledMisses;
    /**
     * Exact (not miss-estimate) phase discriminators: sampled lines
     * first seen in this window, and distinct sampled lines touched.
     * Cold/streaming phases show high first-touch rates; tight
     * conflict loops show small footprints — signals the sparse
     * per-capacity miss counts alone cannot separate.
     */
    Count sampledNewLines = 0;
    Count sampledUniqueLines = 0;
};

/** Everything one MRC pass produces. */
struct MrcResult
{
    std::vector<MrcPoint> points;

    Count totalRefs = 0;    ///< memory references scanned
    Count sampledRefs = 0;  ///< references past the admission test
    Count linesSampled = 0; ///< distinct sampled lines seen
    /** Weighted sampled references (each 1/R at sample time). */
    double weightedRefs = 0.0;

    double configuredRate = 0.0;
    /** Final threshold rate (== configuredRate for fixed-rate). */
    double finalRate = 0.0;
    std::uint64_t seed = 0;
    unsigned lineBytes = 64;
    ShardsVariant variant = ShardsVariant::FixedRate;
    bool rateCorrected = true;
    /** Times the fixed-size variant halved the threshold. */
    unsigned thresholdHalvings = 0;
    /** MrcConfig::minSampledLines triggered a boosted re-run. */
    bool minLinesBoost = false;

    /** Window series (empty unless cfg.windowRefs > 0). */
    Count windowRefs = 0;
    std::vector<WindowSignature> windows;

    /**
     * Where the scanned source's view can be read from, in reference
     * order (SampledStream::checkpoints); the interval replay starts
     * each window at the nearest one.  Empty when the source has no
     * view.
     */
    std::vector<TraceCheckpoint> checkpoints;

    /** Curve value at the smallest point >= @p capacity_bytes. */
    double missRatioAt(std::size_t capacity_bytes) const;
};

/** One memory reference the scan admitted. */
struct SampledRef
{
    Addr line = 0;            ///< LineAddr value: the masked address
    Count ordinal = 0;        ///< 1-based memory-reference index
    std::uint32_t bucket = 0; ///< SamplingPredicate::bucketOf(line)
};

/**
 * What one decode pass keeps of a trace: its memory-reference count,
 * the references whose bucket is below `threshold`, and, when the
 * source has a view, a checkpoint at each chunk start and then every
 * kCheckpointRefs references within the chunk.
 *
 * The threshold is the highest any pass over the stream uses (the
 * configured rate raised to maxBoostedRate), and a pass at a lower
 * threshold keeps exactly the references whose bucket is below its
 * own, so the configured pass, the boosted re-run and every
 * fixed-size halving are filters of this one stream.
 */
struct SampledStream
{
    static constexpr Count kCheckpointRefs = 4096;

    Count totalRefs = 0;
    std::uint64_t threshold = 0;
    std::uint64_t seed = 0;
    unsigned lineBytes = 64;
    /**
     * The admitted references in stream order, one segment per view
     * chunk (one in all for a source without a view).
     */
    std::vector<std::vector<SampledRef>> segments;
    std::vector<TraceCheckpoint> checkpoints;
};

/**
 * Decode @p trace once into the stream every pass of @p cfg runs
 * over, through mapChunks() (trace/source.hh): a viewed source chunk
 * by chunk on one worker per hardware thread, each chunk with local
 * ordinals fixed by a prefix sum over the chunks' reference counts; a
 * source without a view is reset and read through on this thread.
 */
Expected<SampledStream> scanTrace(TraceSource &trace,
                                  const MrcConfig &cfg);

/**
 * Build the miss-ratio curve from @p stream, which must have been
 * scanned with @p cfg's seed, line size and a threshold no lower
 * than its admission cap.  Deterministic for a given (trace, cfg).
 */
Expected<MrcResult> buildMrc(const SampledStream &stream,
                             const MrcConfig &cfg);

/** scanTrace() then buildMrc() over the stream. */
Expected<MrcResult> buildMrc(TraceSource &trace, const MrcConfig &cfg);

/** The same over @p count in-memory records (a SpanTrace). */
Expected<MrcResult> buildMrc(const MemRecord *records,
                             std::size_t count, const MrcConfig &cfg);

/**
 * Pre-register the sampling instruments (ccm_sample_lines_sampled
 * _total, ccm_sample_rate, ccm_sample_mrc_build_us) with the global
 * metrics registry so telemetry consumers (ccm-top) see them at
 * their zero values before the first pass runs.
 */
void touchSampleMetrics();

} // namespace ccm::sample

#endif // CCM_SAMPLE_MRC_HH
