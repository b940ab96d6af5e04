/**
 * @file
 * Functional (timing-free) classification experiment: run a trace
 * through a cache + MCT + oracle and score the MCT's accuracy.  This
 * is exactly the measurement behind Figures 1 and 2.
 */

#ifndef CCM_MCT_CLASSIFY_RUN_HH
#define CCM_MCT_CLASSIFY_RUN_HH

#include "cache/geometry.hh"
#include "mct/accuracy.hh"
#include "mct/classify_kernel.hh"
#include "mct/mct.hh"
#include "trace/source.hh"

namespace ccm
{

/**
 * Per-reference observer for classification runs.  Implemented by the
 * obs layer (interval sampling, event tracing); classifyRun invokes
 * it in program order.  This is the only place MCT verdict and oracle
 * verdict are visible together, so oracle-agreement observability
 * hangs off it.
 */
class ClassifyObserver
{
  public:
    virtual ~ClassifyObserver() = default;

    /** Every memory reference; @p miss is the real cache's outcome. */
    virtual void onReference(bool miss) { (void)miss; }

    /** Every miss, with both classifications. */
    virtual void
    onMiss(SetIndex set, Tag tag, MissClass mct, MissClass oracle)
    {
        (void)set;
        (void)tag;
        (void)mct;
        (void)oracle;
    }
};

/** Parameters of one classification run. */
struct ClassifyConfig : ClassifyGeometry
{
    /** Optional observer (not owned); nullptr = no observation. */
    ClassifyObserver *observer = nullptr;

    /**
     * Optional lookup hook installed on the classifier table for the
     * duration of the run (stored-tag-level event tracing).
     */
    MctLookupHook lookupHook;
};

/** Outcome of a classification run. */
struct ClassifyResult
{
    AccuracyScorer scorer;
    Count references = 0;    ///< memory references simulated
    Count misses = 0;
    double missRate = 0.0;
};

/**
 * Replay @p trace (reset first) against the configured cache,
 * classifying every miss with both the MCT and the oracle.  Fatal on
 * a config that fails ClassifyGeometry::validate().
 */
ClassifyResult classifyRun(TraceSource &trace, const ClassifyConfig &cfg);

} // namespace ccm

#endif // CCM_MCT_CLASSIFY_RUN_HH
