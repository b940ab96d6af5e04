/**
 * @file
 * Representative-interval selection and replay (Bueno et al.,
 * "Improving the Representativeness of Simulation Intervals for the
 * Cache Memory System" — see PAPERS.md).
 *
 * A long trace is cut into fixed-length windows of W memory
 * references.  The MRC pass (mrc.hh, MrcConfig::windowRefs = W)
 * already produces a cheap per-window feature vector — the sampled
 * miss counts per curve point, i.e. the window's reuse/miss
 * signature — so phase detection costs nothing beyond the sampled
 * scan.  The windows are clustered k-means-style in z-scored feature
 * space (deterministic: Pcg32-seeded init, fixed iteration cap,
 * lowest-index tie-breaks) and each cluster elects its medoid as the
 * representative window, weighted by the cluster's share of all
 * windows.
 *
 * Only the K representative windows are then replayed *exactly*
 * (the ClassifyKernel step, counted by classifyCounted as in the
 * sharded engine, after an uncounted warmup pass over the preceding
 * references to populate the cold cache).  The replay keys windows by
 * memory-reference ordinal.  Through the source's view, each window
 * runs on its own cursor from the scan checkpoint nearest its warm-up
 * start, the windows spread over up to one worker per view chunk and
 * hardware thread (forEachIndex); a source without a view is walked
 * through once, feeding every active window's kernel.  Every
 * whole-trace classification counter is reconstructed as
 *
 *     predicted = sum_c weight_c * rate_c * totalRefs
 *
 * with rate_c the counter's per-reference rate inside cluster c's
 * representative.  The stratified-sampling error bar reported per
 * stat is 1.96 * sqrt(sum_c (weight_c * rate_c * N * relsd_c)^2)
 * where relsd_c is the within-cluster relative spread of the window
 * signatures — clusters whose windows disagree contribute wide bars,
 * tight phases contribute narrow ones.
 *
 * Determinism: same records + MrcResult + config => identical
 * IntervalResult on every platform (Pcg32 is seedable and fixed;
 * the replay is the exact simulator).
 */

#ifndef CCM_SAMPLE_INTERVALS_HH
#define CCM_SAMPLE_INTERVALS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "hierarchy/memstats.hh"
#include "sample/mrc.hh"
#include "sim/sharded.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ccm::sample
{

/** Parameters of interval selection + replay. */
struct IntervalConfig
{
    /** Representative windows to keep (clamped to window count). */
    std::size_t k = 4;

    /**
     * Uncounted warmup prefix replayed before each representative
     * window, in memory references, to populate the cold cache/MCT.
     */
    Count warmupRefs = 16 * 1024;

    /** k-means init / tie-break stream. */
    std::uint64_t seed = 42;

    /** Lloyd iteration cap (assignments usually settle in < 10). */
    unsigned maxIters = 32;
};

/** One elected representative window and its exact replay. */
struct RepresentativeWindow
{
    std::size_t windowIndex = 0; ///< index into MrcResult::windows
    double weight = 0.0;         ///< cluster share of all windows
    std::size_t clusterSize = 0; ///< windows in this cluster

    Count firstRef = 0; ///< 1-based, inclusive
    Count lastRef = 0;
    Count refs = 0; ///< memory references inside the window

    /** Exact classify counters measured inside the window. */
    MemStats delta;

    /** Within-cluster relative spread of window signatures. */
    double relSpread = 0.0;
};

/** One reconstructed whole-trace statistic with its error bar. */
struct StatEstimate
{
    std::string name;      ///< MemStats field name
    double predicted = 0.0; ///< reconstructed whole-trace count
    double errorBar = 0.0;  ///< +/- absolute, at `confidence`
};

/** Everything interval selection + replay produces. */
struct IntervalResult
{
    std::size_t windows = 0;  ///< windows the trace was cut into
    std::size_t clusters = 0; ///< K actually used (<= windows)
    Count windowRefs = 0;     ///< window length W
    Count totalRefs = 0;      ///< whole-trace memory references
    Count replayedRefs = 0;   ///< refs simulated, warmup included
    double confidence = 0.95; ///< level of the error bars

    std::vector<RepresentativeWindow> reps;

    /** Per-counter reconstruction, MemStats::forEachField order. */
    std::vector<StatEstimate> stats;

    /** The reconstruction rounded back onto the counter schema. */
    MemStats predicted;

    /** Estimate by field name; nullptr when absent. */
    const StatEstimate *find(const std::string &name) const;
};

/**
 * Cluster @p mrc's window signatures, replay the K representatives
 * exactly against @p cache_cfg's geometry, and reconstruct the
 * whole-trace classify stats.  @p trace must be the source the MRC
 * pass scanned, so that mrc.checkpoints are cursors of its view;
 * @p mrc must carry windows (windowRefs > 0).
 */
Expected<IntervalResult> reconstructFromIntervals(
    TraceSource &trace, const MrcResult &mrc,
    const ShardedClassifyConfig &cache_cfg, const IntervalConfig &cfg);

/** The same over @p count in-memory records (a SpanTrace). */
Expected<IntervalResult> reconstructFromIntervals(
    const MemRecord *records, std::size_t count, const MrcResult &mrc,
    const ShardedClassifyConfig &cache_cfg, const IntervalConfig &cfg);

} // namespace ccm::sample

#endif // CCM_SAMPLE_INTERVALS_HH
