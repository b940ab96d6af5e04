/**
 * @file
 * Experiment driver shared by the benchmark binaries and examples:
 * whole-system configuration, single timing runs, suite sweeps, and
 * the named policy configurations of paper §5.
 */

#ifndef CCM_SIM_EXPERIMENT_HH
#define CCM_SIM_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "cpu/core.hh"
#include "hierarchy/config.hh"
#include "hierarchy/memstats.hh"
#include "trace/source.hh"

namespace ccm
{

/** A complete simulated machine. */
struct SystemConfig
{
    MemSysConfig mem;
    CoreConfig core;
};

/** Everything one timing run produces. */
struct RunOutput
{
    SimResult sim;
    MemStats mem;
    /** Per-set activity histograms (heatmap source). */
    SetHistograms heat;
};

/**
 * Callback run against the freshly built machine before the timing
 * loop starts — the place to attach observability hooks (access
 * hooks, MCT lookup hooks) to internals that only exist during the
 * run.
 */
using MemSysInstrument = std::function<void(MemorySystem &)>;

/** Run @p trace (reset first) on a machine built from @p config. */
RunOutput runTiming(TraceSource &trace, const SystemConfig &config,
                    const MemSysInstrument &instrument = {});

/**
 * Like runTiming, but recoverable: a configuration validate() rejects
 * comes back as its bad-config status (and an exception escaping the
 * run as an internal one) instead of exiting.
 */
Expected<RunOutput> tryRunTiming(TraceSource &trace,
                                 const SystemConfig &config,
                                 const MemSysInstrument &instrument = {});

/** Speedup of @p test over @p base (cycles ratio). */
double speedup(const RunOutput &base, const RunOutput &test);

// ---- Suite sweeps with per-workload failure isolation -------------

/** One row of a suite sweep: a result, or why this run failed. */
struct SuiteRow
{
    std::string workload;
    Status status;
    RunOutput out; ///< meaningful only when status.isOk()

    /**
     * Wall-clock time spent producing this row (trace factory +
     * simulation), in seconds.  The only nondeterministic field: two
     * sweeps of the same suite agree on everything else bit-for-bit
     * regardless of --jobs (tested in test_parallel).
     */
    double wallSeconds = 0.0;

    bool ok() const { return status.isOk(); }
};

/** Every row of a sweep, failed runs included. */
struct SuiteReport
{
    std::vector<SuiteRow> rows;

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
    const SuiteRow *row(const std::string &name) const;
};

/**
 * Produces the trace for one named suite entry — or the Status that
 * explains why it can't (unknown workload, corrupt trace file, ...).
 */
using SuiteTraceFactory = std::function<
    Expected<std::unique_ptr<TraceSource>>(const std::string &name)>;

/**
 * Per-run instrumentation for suite sweeps: called with the workload
 * name and the machine about to run it.
 */
using SuiteInstrument =
    std::function<void(const std::string &name, MemorySystem &)>;

/**
 * Produce the row for one suite cell: run the trace factory and the
 * simulation with every error status (and any exception) captured
 * into the row's status, and the cell's wall time measured.  This is
 * the unit of work of the suite runner (runSuiteParallel,
 * sim/parallel.hh) at every --jobs value, so two sweeps' rows can only
 * differ in wallSeconds.
 */
SuiteRow runSuiteCell(const std::string &name,
                      const SuiteTraceFactory &factory,
                      const SystemConfig &config,
                      const SuiteInstrument &instrument = {});

// ---- Named configurations from paper §5 ---------------------------

/**
 * The named §5 architecture @p arch (baseline | victim | prefetch |
 * exclude | pseudo | pseudo-lru | twoway | amb) with its default
 * policy settings, or why the name is unknown.
 */
Expected<SystemConfig> buildArchConfig(const std::string &arch);

/** §4 baseline: no assist buffer. */
SystemConfig baselineConfig();

/** §5.1 victim cache variants (Figure 3 / Table 1). */
SystemConfig victimConfig(bool filter_swaps, bool filter_fills,
                          ConflictFilter filter = ConflictFilter::Or);

/** §5.2 next-line prefetcher variants (Figure 4). */
SystemConfig prefetchConfig(bool filtered,
                            ConflictFilter filter = ConflictFilter::Out);

/** §5.3 cache-exclusion variants (Figure 5); uses 16 buffer entries. */
SystemConfig excludeConfig(ExcludeAlgo algo);

/** §5.4 pseudo-associative cache (MCT-guided or baseline LRU). */
SystemConfig pseudoConfig(bool use_mct);

/** §5.4 comparison point: true 2-way set-associative L1. */
SystemConfig twoWayConfig();

/** §5.5 adaptive miss buffer. */
SystemConfig ambConfig(bool victim_conflicts, bool prefetch_capacity,
                       bool exclude_capacity, unsigned buf_entries = 8);

/** §5.5 single-policy reference points (best filtered variants). */
SystemConfig ambSingleVict(unsigned buf_entries = 8);
SystemConfig ambSinglePref(unsigned buf_entries = 8);
SystemConfig ambSingleExcl(unsigned buf_entries = 8);

} // namespace ccm

#endif // CCM_SIM_EXPERIMENT_HH
