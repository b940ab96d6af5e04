/**
 * @file
 * Functional (timing-free) classification experiment: run a trace
 * through a cache + MCT + oracle and score the MCT's accuracy.  This
 * is exactly the measurement behind Figures 1 and 2, and classifyRun
 * is the one loop that steps the oracle beside the classify kernel.
 */

#ifndef CCM_MCT_CLASSIFY_RUN_HH
#define CCM_MCT_CLASSIFY_RUN_HH

#include "mct/accuracy.hh"
#include "mct/classify_kernel.hh"
#include "trace/source.hh"

namespace ccm
{

/** Parameters of one classification run: the cache + MCT shape. */
using ClassifyConfig = ClassifyGeometry;

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
