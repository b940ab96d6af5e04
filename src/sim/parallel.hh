/**
 * @file
 * Suite execution: one row per named workload, each row a trace from
 * the suite's factory run through one simulation.  One row loop serves
 * both suite kinds: the timing suite (runSuiteParallel) spreads its
 * rows over worker threads (forEachIndex, common/thread_pool.hh;
 * jobs == 1 is the sequential sweep), and the classify suite
 * (runClassifySuite) runs its rows one after another, each sharded
 * cfg.shards ways (sim/sharded.hh), since stacking --jobs on --shards
 * would just oversubscribe.
 *
 * Every cell of the paper's evaluation cross-product is an independent
 * deterministic simulation, so for every jobs value the runner keeps
 * the sequential contract:
 *
 *  - row order matches @p names;
 *  - per-row failure isolation (a failing or throwing cell becomes an
 *    errored row; the rest of the suite completes);
 *  - bit-identical results to a plain loop over runTiming — a row can
 *    differ from such a run only in wallSeconds (tested in
 *    tests/test_parallel.cc).
 *
 * A row's interval windows are part of its result.  The row owns its
 * IntervalSampler, whose hook fires only on the worker running that
 * row, and rows reach the caller only through the returned report,
 * after every worker has finished: nothing needs a lock
 * (docs/OBSERVABILITY.md "Hooks under --jobs").
 */

#ifndef CCM_SIM_PARALLEL_HH
#define CCM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"

namespace ccm
{

/** One row of a suite sweep: a result, or why this run failed. */
template <typename Out>
struct SuiteRowOf
{
    std::string workload;
    Status status;
    Out out; ///< meaningful only when status.isOk()

    /**
     * Wall-clock time spent producing this row (trace factory +
     * simulation), in seconds.  The only nondeterministic field: two
     * sweeps of the same suite agree on everything else bit-for-bit
     * regardless of --jobs or --shards.
     */
    double wallSeconds = 0.0;

    bool ok() const { return status.isOk(); }
};

/** Every row of a sweep, failed runs included. */
template <typename Out>
struct SuiteReportOf
{
    std::vector<SuiteRowOf<Out>> rows;

    std::size_t
    failures() const
    {
        std::size_t n = 0;
        for (const auto &r : rows)
            if (!r.ok())
                ++n;
        return n;
    }

    bool allOk() const { return failures() == 0; }

    /** Row for @p name, or nullptr when absent. */
    const SuiteRowOf<Out> *
    row(const std::string &name) const
    {
        for (const auto &r : rows)
            if (r.workload == name)
                return &r;
        return nullptr;
    }
};

/** Timing-suite rows: one runTiming each. */
using SuiteRow = SuiteRowOf<RunOutput>;
using SuiteReport = SuiteReportOf<RunOutput>;

/** Classify-suite rows: one runShardedClassify each. */
using ClassifySuiteReport = SuiteReportOf<ShardedClassifyResult>;

/**
 * Produces the trace for one named suite entry — or the Status that
 * explains why it can't (unknown workload, corrupt trace file, ...).
 */
using SuiteTraceFactory = std::function<
    Expected<std::unique_ptr<TraceSource>>(const std::string &name)>;

/** How a timing sweep runs and reports. */
struct ParallelSuiteOptions
{
    /**
     * Worker threads.  1 (the default) runs the rows on the calling
     * thread in names order; 0 means one worker per hardware thread
     * (resolveJobCount).
     */
    std::size_t jobs = 1;

    /**
     * Interval-sample window in memory references; 0 = no series.
     * Each row samples its own run into SuiteRow::out.intervals.
     */
    Count interval = 0;

    /**
     * Per-workload configuration override: called once per row with
     * the workload name and the sweep's base config, returning the
     * config that row actually runs.  This is how --auto-size applies
     * MRC-derived geometry per workload (src/sample/recommend.hh).
     * Must be pure (it may run concurrently under --jobs); absent
     * means every row runs the base config.
     */
    std::function<SystemConfig(const std::string &,
                               const SystemConfig &)>
        configFor;
};

/**
 * Sweep @p config over every workload in @p names, isolating
 * failures: a run whose trace can't be produced, whose config
 * validate() rejects or that throws is recorded as an errored row and
 * the rest of the suite still completes.  Row order matches @p names.
 * With opts.jobs == 1 the rows run on the calling thread; with more
 * workers they compute concurrently and the report is identical
 * except for wallSeconds.
 */
SuiteReport runSuiteParallel(const std::vector<std::string> &names,
                             const SuiteTraceFactory &factory,
                             const SystemConfig &config,
                             const ParallelSuiteOptions &opts = {});

/**
 * Classify every workload in @p names through runShardedClassify,
 * one row at a time on the calling thread, with the same failure
 * isolation and wall-time accounting as runSuiteParallel.  @p cfg
 * must already pass ClassifyGeometry::validate().
 */
ClassifySuiteReport runClassifySuite(const std::vector<std::string> &names,
                                     const SuiteTraceFactory &factory,
                                     const ShardedClassifyConfig &cfg);

} // namespace ccm

#endif // CCM_SIM_PARALLEL_HH
