#include "sim/experiment.hh"

#include <exception>

#include "hierarchy/memsys.hh"

namespace ccm
{

RunOutput
runTiming(TraceSource &trace, const SystemConfig &config,
          const MemSysInstrument &instrument)
{
    MemorySystem mem(config.mem);
    if (instrument)
        instrument(mem);
    Core core(config.core);
    RunOutput out;
    out.sim = core.run(trace, mem);
    out.mem = mem.stats();
    out.heat = mem.setHistograms();
    return out;
}

void
RunOutput::adoptWindows(obs::IntervalSampler &sampler)
{
    sampler.finish(mem);
    interval = sampler.every();
    intervals = sampler.takeSamples();
}

Expected<RunOutput>
tryRunTiming(TraceSource &trace, const SystemConfig &config,
             const MemSysInstrument &instrument)
{
    Status s = validate(config.mem);
    if (!s.isOk())
        return s;
    try {
        return runTiming(trace, config, instrument);
    } catch (const std::exception &e) {
        return Status::internal("run failed: ", e.what());
    }
}

double
speedup(const RunOutput &base, const RunOutput &test)
{
    if (test.sim.cycles == 0)
        return 0.0;
    return static_cast<double>(base.sim.cycles) /
           static_cast<double>(test.sim.cycles);
}

Expected<SystemConfig>
buildArchConfig(const std::string &arch)
{
    if (arch == "baseline")
        return baselineConfig();
    if (arch == "victim")
        return victimConfig(false, false);
    if (arch == "prefetch")
        return prefetchConfig(false);
    if (arch == "exclude")
        return excludeConfig(ExcludeAlgo::Capacity);
    if (arch == "pseudo")
        return pseudoConfig(true);
    if (arch == "pseudo-lru")
        return pseudoConfig(false);
    if (arch == "twoway")
        return twoWayConfig();
    if (arch == "amb")
        return ambConfig(true, true, true);
    return Status::badConfig("unknown arch '", arch, "'");
}

SystemConfig
baselineConfig()
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::None;
    return cfg;
}

SystemConfig
victimConfig(bool filter_swaps, bool filter_fills, ConflictFilter filter)
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::VictimCache;
    cfg.mem.victim.filterSwaps = filter_swaps;
    cfg.mem.victim.filterFills = filter_fills;
    cfg.mem.victim.filter = filter;
    return cfg;
}

SystemConfig
prefetchConfig(bool filtered, ConflictFilter filter)
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::PrefetchBuffer;
    cfg.mem.prefetch.filtered = filtered;
    cfg.mem.prefetch.filter = filter;
    return cfg;
}

SystemConfig
excludeConfig(ExcludeAlgo algo)
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::BypassBuffer;
    cfg.mem.exclude.algo = algo;
    // "The Johnson algorithm ... did poorly with an 8-entry buffer,
    // which is why we use the slightly larger structure here."
    cfg.mem.bufEntries = 16;
    return cfg;
}

SystemConfig
pseudoConfig(bool use_mct)
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::PseudoAssoc;
    cfg.mem.pseudoUseMct = use_mct;
    return cfg;
}

SystemConfig
twoWayConfig()
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::None;
    cfg.mem.l1Assoc = 2;
    return cfg;
}

SystemConfig
ambConfig(bool victim_conflicts, bool prefetch_capacity,
          bool exclude_capacity, unsigned buf_entries)
{
    SystemConfig cfg;
    cfg.mem.mode = AssistMode::Amb;
    cfg.mem.amb.victimConflicts = victim_conflicts;
    cfg.mem.amb.prefetchCapacity = prefetch_capacity;
    cfg.mem.amb.excludeCapacity = exclude_capacity;
    cfg.mem.bufEntries = buf_entries;
    return cfg;
}

SystemConfig
ambSingleVict(unsigned buf_entries)
{
    // Best single victim variant found in §5.1: filter both swaps and
    // fills with the or-conflict filter.
    SystemConfig cfg = victimConfig(true, true, ConflictFilter::Or);
    cfg.mem.bufEntries = buf_entries;
    return cfg;
}

SystemConfig
ambSinglePref(unsigned buf_entries)
{
    // Best single prefetch variant: capacity-only prefetching with
    // the out-conflict filter.
    SystemConfig cfg = prefetchConfig(true, ConflictFilter::Out);
    cfg.mem.bufEntries = buf_entries;
    return cfg;
}

SystemConfig
ambSingleExcl(unsigned buf_entries)
{
    // Best single exclusion variant: bypass MCT-capacity misses.
    SystemConfig cfg = excludeConfig(ExcludeAlgo::Capacity);
    cfg.mem.bufEntries = buf_entries;
    return cfg;
}

} // namespace ccm
