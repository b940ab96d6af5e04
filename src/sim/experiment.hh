/**
 * @file
 * Experiment driver shared by the benchmark binaries and examples:
 * whole-system configuration, single timing runs and the named policy
 * configurations of paper §5.  Suite sweeps are in sim/parallel.hh.
 *
 * A run's interval windows are part of its result (RunOutput::
 * intervals), as they are of a sharded classify run's: whoever attaches
 * the IntervalSampler hands its windows over with adoptWindows() once
 * the run ends, so no document builder needs the sampler itself.
 */

#ifndef CCM_SIM_EXPERIMENT_HH
#define CCM_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "cpu/core.hh"
#include "hierarchy/config.hh"
#include "hierarchy/memstats.hh"
#include "obs/interval.hh"
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

    /** Interval series (empty when no sampler was attached). */
    std::vector<obs::IntervalSample> intervals;

    /** Window length the series was sampled at; 0 = no series. */
    Count interval = 0;

    /**
     * Flush @p sampler's last window against this run's final
     * counters and move its series into intervals.
     */
    void adoptWindows(obs::IntervalSampler &sampler);
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
