/**
 * @file
 * Suite execution: run the (workload, config) cells of a suite sweep,
 * one after another or fanned out over worker threads
 * (forEachIndex, common/thread_pool.hh).  This is the one suite
 * runner; jobs == 1 is the sequential sweep.
 *
 * Every cell of the paper's evaluation cross-product — 16 workloads ×
 * {victim, prefetch, exclusion, pseudo-associative, AMB} × filter
 * variants — is an independent deterministic simulation, so the sweep
 * parallelizes without touching the simulation layers.  For every
 * jobs value the runner keeps the sequential contract:
 *
 *  - row order matches @p names;
 *  - per-row failure isolation (a throwing cell becomes an errored
 *    SuiteRow; the rest of the suite completes);
 *  - bit-identical stats to a plain loop over runSuiteCell — a row
 *    can differ from its sequential twin only in
 *    SuiteRow::wallSeconds (tested in tests/test_parallel.cc).
 *
 * ## Hook-delivery thread-safety contract
 *
 * Observability attaches through callbacks, and the runner makes
 * their threading explicit so obs sinks need no locking of their own
 * (docs/OBSERVABILITY.md "Hooks under --jobs"):
 *
 *  1. `instrument` (SuiteInstrument) calls are **mutually excluded**:
 *     at most one executes at any time, on the worker thread that is
 *     about to run the row.  Instruments may therefore mutate shared
 *     containers (e.g. a name→sampler map) without locking.
 *  2. Hooks an instrument attaches to a machine (access hooks, MCT
 *     lookup hooks) fire **only on the single worker thread running
 *     that row** — per-row observer state is single-threaded.
 *     Observers shared across rows are the one thing that would need
 *     their own synchronization; prefer per-row observers.
 *  3. Rows reach the caller only through the returned report, after
 *     every worker has finished: cross-row aggregation reads the
 *     report on the calling thread and needs no locking.
 */

#ifndef CCM_SIM_PARALLEL_HH
#define CCM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace ccm
{

/** How a parallel sweep runs and reports. */
struct ParallelSuiteOptions
{
    /**
     * Worker threads.  1 (the default) runs the rows on the calling
     * thread in names order; 0 means one worker per hardware thread
     * (resolveJobCount).
     */
    std::size_t jobs = 1;

    /** Per-row instrumentation; serialized (contract point 1). */
    SuiteInstrument instrument;

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
 * failures: a run whose trace can't be produced or whose config
 * validate() rejects is recorded as an errored row and the rest of
 * the suite still completes.  Row order matches @p names.  With
 * opts.jobs == 1 the rows run on the calling thread; with more
 * workers they compute concurrently and the report is identical
 * except for wallSeconds.
 */
SuiteReport runSuiteParallel(const std::vector<std::string> &names,
                             const SuiteTraceFactory &factory,
                             const SystemConfig &config,
                             const ParallelSuiteOptions &opts = {});

} // namespace ccm

#endif // CCM_SIM_PARALLEL_HH
