/**
 * @file
 * Top-level sampling analysis: one call runs the SHARDS MRC pass,
 * optionally the representative-interval selection + replay, the
 * geometry recommendation, and — when asked — the exact reference
 * runs (rate-1.0 MRC, full exact classify) the predictions are
 * scored against.  The CLI (ccm-sample), the ccm-sim flags and the
 * sampling bench all sit on this one entry point so they can't
 * disagree about what a "sampled analysis" is.
 */

#ifndef CCM_SAMPLE_ENGINE_HH
#define CCM_SAMPLE_ENGINE_HH

#include <cstddef>

#include "common/status.hh"
#include "sample/intervals.hh"
#include "sample/mrc.hh"
#include "sample/recommend.hh"
#include "sim/sharded.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ccm::sample
{

/** Parameters of one full sampling analysis. */
struct SampleRunConfig
{
    /** MRC pass parameters (rate, seed, variant, grid, windows). */
    MrcConfig mrc;

    /**
     * Representative windows to select and replay; 0 skips the
     * interval pillar entirely.  When > 0 and mrc.windowRefs == 0, a
     * default window of 1/32 of the trace (min 4096 refs) is used.
     */
    std::size_t intervals = 0;

    /** Selection/replay knobs (k is overridden by `intervals`). */
    IntervalConfig interval;

    /** Replay geometry; also the exact-classify configuration. */
    ShardedClassifyConfig classify;

    /**
     * Also run the exact references (rate-1.0 MRC + exact classify)
     * and fill the error fields.  Costs what sampling saves — used
     * by the accuracy bench and the CI gate, not production sweeps.
     */
    bool compareExact = false;
};

/** Everything one sampling analysis produces. */
struct SampleReport
{
    MrcResult mrc;
    GeometryRecommendation recommendation;

    /** Interval pillar (valid iff hasIntervals). */
    bool hasIntervals = false;
    IntervalResult intervals;

    // ---- exact references (valid iff compareExact was set) -------
    bool hasExact = false;
    MrcResult exactMrc;
    ShardedClassifyResult exactClassify;

    /** Mean/max |sampled - exact| miss-ratio over the grid. */
    double mrcMae = 0.0;
    double mrcMaxError = 0.0;

    /**
     * Max relative reconstruction error over the classify counters
     * that are nonzero in the exact run (0 when intervals are off).
     */
    double maxStatRelError = 0.0;

    // Wall clock, named so ci.sh's wall_seconds strip catches the
    // JSON lines derived from them (nondeterministic by nature).
    double wallSecondsSampled = 0.0;
    double wallSecondsExact = 0.0;
};

/**
 * Run the analysis over @p trace without copying it: one decode pass
 * into the sampled stream the MRC passes run over, then a replay of
 * the representative windows from the scan's checkpoints (and, with
 * compareExact, a rate-1.0 scan and an exact classify).  A viewed
 * source's scans and replay each read it in parallel chunks
 * (mapChunks, trace/source.hh).  Deterministic except the
 * wallSeconds* fields.
 */
Expected<SampleReport> runSampleAnalysis(TraceSource &trace,
                                         const SampleRunConfig &cfg);

/** The same over @p count in-memory records (a SpanTrace). */
Expected<SampleReport> runSampleAnalysis(const MemRecord *records,
                                         std::size_t count,
                                         const SampleRunConfig &cfg);

} // namespace ccm::sample

#endif // CCM_SAMPLE_ENGINE_HH
