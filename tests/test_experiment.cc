/**
 * @file
 * Tests for the experiment driver: the named §5 configurations,
 * speedup math, determinism, and the stats dump format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

TEST(Configs, BaselineMatchesPaperSection4)
{
    SystemConfig cfg = baselineConfig();
    EXPECT_EQ(cfg.mem.l1Bytes, 16u * 1024);
    EXPECT_EQ(cfg.mem.l1Assoc, 1u);
    EXPECT_EQ(cfg.mem.lineBytes, 64u);
    EXPECT_EQ(cfg.mem.l1Banks, 8u);
    EXPECT_EQ(cfg.mem.l2Bytes, 1024u * 1024);
    EXPECT_EQ(cfg.mem.l2Assoc, 2u);
    EXPECT_EQ(cfg.mem.l2Latency, 20u);
    EXPECT_EQ(cfg.mem.memLatency, 100u);
    EXPECT_EQ(cfg.mem.mshrs, 16u);
    EXPECT_EQ(cfg.mem.bufEntries, 8u);
    EXPECT_EQ(cfg.mem.mode, AssistMode::None);
    EXPECT_EQ(cfg.core.fetchWidth, 8u);
    EXPECT_EQ(cfg.core.robSize, 64u);
    EXPECT_EQ(cfg.core.loadStoreUnits, 4u);
    EXPECT_EQ(cfg.core.pipelineFill, 7u);
}

TEST(Configs, VictimConfigSetsPolicy)
{
    SystemConfig cfg = victimConfig(true, false, ConflictFilter::And);
    EXPECT_EQ(cfg.mem.mode, AssistMode::VictimCache);
    EXPECT_TRUE(cfg.mem.victim.filterSwaps);
    EXPECT_FALSE(cfg.mem.victim.filterFills);
    EXPECT_EQ(cfg.mem.victim.filter, ConflictFilter::And);
}

TEST(Configs, ExcludeUsesSixteenEntries)
{
    // "The Johnson algorithm ... did poorly with an 8-entry buffer,
    // which is why we use the slightly larger structure here."
    SystemConfig cfg = excludeConfig(ExcludeAlgo::Mat);
    EXPECT_EQ(cfg.mem.bufEntries, 16u);
    EXPECT_EQ(cfg.mem.exclude.algo, ExcludeAlgo::Mat);
}

TEST(Configs, AmbPresetsComposeComponents)
{
    SystemConfig cfg = ambConfig(true, false, true, 16);
    EXPECT_EQ(cfg.mem.mode, AssistMode::Amb);
    EXPECT_TRUE(cfg.mem.amb.victimConflicts);
    EXPECT_FALSE(cfg.mem.amb.prefetchCapacity);
    EXPECT_TRUE(cfg.mem.amb.excludeCapacity);
    EXPECT_EQ(cfg.mem.bufEntries, 16u);
}

TEST(Configs, SingleBestVariants)
{
    EXPECT_TRUE(ambSingleVict().mem.victim.filterSwaps);
    EXPECT_TRUE(ambSingleVict().mem.victim.filterFills);
    EXPECT_TRUE(ambSinglePref().mem.prefetch.filtered);
    EXPECT_EQ(ambSingleExcl().mem.exclude.algo,
              ExcludeAlgo::Capacity);
}

TEST(Configs, TwoWayAndPseudo)
{
    EXPECT_EQ(twoWayConfig().mem.l1Assoc, 2u);
    EXPECT_EQ(pseudoConfig(true).mem.mode, AssistMode::PseudoAssoc);
    EXPECT_TRUE(pseudoConfig(true).mem.pseudoUseMct);
    EXPECT_FALSE(pseudoConfig(false).mem.pseudoUseMct);
}

TEST(Experiment, SpeedupMath)
{
    RunOutput base, test;
    base.sim.cycles = 200;
    test.sim.cycles = 100;
    EXPECT_DOUBLE_EQ(speedup(base, test), 2.0);
    test.sim.cycles = 0;
    EXPECT_DOUBLE_EQ(speedup(base, test), 0.0);
}

TEST(Experiment, RunTimingDeterministic)
{
    auto wl = makeWorkload("perl", 5000, 3);
    VectorTrace t = VectorTrace::capture(*wl);
    RunOutput a = runTiming(t, ambConfig(true, true, true));
    RunOutput b = runTiming(t, ambConfig(true, true, true));
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.mem.excluded, b.mem.excluded);
    EXPECT_EQ(a.mem.prefIssued, b.mem.prefIssued);
}

TEST(Experiment, StatsDumpFormat)
{
    auto wl = makeWorkload("go", 2000, 3);
    VectorTrace t = VectorTrace::capture(*wl);
    RunOutput r = runTiming(t, victimConfig(false, false));
    std::ostringstream os;
    r.mem.dump(os, "test");
    std::string s = os.str();
    EXPECT_NE(s.find("test.accesses 2000"), std::string::npos);
    EXPECT_NE(s.find("test.l1_hits "), std::string::npos);
    EXPECT_NE(s.find("test.swaps "), std::string::npos);
    // Derived ratios ride along with the raw counters.
    EXPECT_NE(s.find("test.l1_hit_rate_pct "), std::string::npos);
    EXPECT_NE(s.find("test.miss_rate_pct "), std::string::npos);
    // One line per counter plus one per derived ratio, all prefixed.
    std::size_t counters = 0;
    MemStats::forEachField([&](const char *, Count MemStats::*) {
        ++counters;
    });
    std::size_t derived = 0;
    r.mem.forEachDerived([&](const char *, double) { ++derived; });
    std::size_t lines = 0, pos = 0;
    while ((pos = s.find('\n', pos)) != std::string::npos) {
        ++lines;
        ++pos;
    }
    EXPECT_EQ(lines, counters + derived);
}

TEST(Experiment, TryRunTimingMatchesRunTiming)
{
    auto wl = makeWorkload("go", 3000, 5);
    VectorTrace t = VectorTrace::capture(*wl);
    RunOutput direct = runTiming(t, baselineConfig());
    Expected<RunOutput> checked = tryRunTiming(t, baselineConfig());
    ASSERT_TRUE(checked.ok());
    EXPECT_EQ(checked.value().sim.cycles, direct.sim.cycles);
    EXPECT_EQ(checked.value().mem.l1Misses, direct.mem.l1Misses);
}

TEST(Experiment, TryRunTimingReportsBadConfigInsteadOfDying)
{
    auto wl = makeWorkload("go", 1000, 5);
    VectorTrace t = VectorTrace::capture(*wl);
    SystemConfig cfg = baselineConfig();
    cfg.mem.l1Bytes = 15000; // not a power of two
    Expected<RunOutput> r = tryRunTiming(t, cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::BadConfig);
    EXPECT_NE(r.status().message().find("power of two"),
              std::string::npos);
}

TEST(Experiment, ArchTableNamesEveryValidConfig)
{
    for (const char *arch : {"baseline", "victim", "prefetch", "exclude",
                             "pseudo", "pseudo-lru", "twoway", "amb"}) {
        auto cfg = buildArchConfig(arch);
        ASSERT_TRUE(cfg.ok()) << arch;
        EXPECT_TRUE(validate(cfg.value().mem).isOk()) << arch;
    }
    EXPECT_EQ(buildArchConfig("twoway").value().mem.l1Assoc, 2u);
    EXPECT_EQ(buildArchConfig("exclude").value().mem.bufEntries, 16u);
    EXPECT_FALSE(buildArchConfig("pseudo-lru").value().mem.pseudoUseMct);
    EXPECT_EQ(buildArchConfig("ternary").status().code(),
              ErrorCode::BadConfig);
}

/** A suite factory over the synthetic workload registry. */
SuiteTraceFactory
registryFactory(std::size_t refs, std::uint64_t seed)
{
    return [=](const std::string &name) {
        return makeWorkloadChecked(name, refs, seed);
    };
}

TEST(Suite, CompletesDespiteOneFailingWorkload)
{
    std::vector<std::string> names = {"go", "gcc", "perl"};
    auto factory = [](const std::string &name)
        -> Expected<std::unique_ptr<TraceSource>> {
        if (name == "gcc")
            return Status::corruptTrace("bad trace magic in gcc.bin");
        return makeWorkloadChecked(name, 2000, 3);
    };
    SuiteReport report =
        runSuiteParallel(names, factory, baselineConfig());

    ASSERT_EQ(report.rows.size(), 3u);
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_FALSE(report.allOk());

    // Row order matches the request, and the healthy runs completed.
    EXPECT_EQ(report.rows[0].workload, "go");
    EXPECT_TRUE(report.rows[0].ok());
    EXPECT_GT(report.rows[0].out.sim.cycles, 0u);
    EXPECT_TRUE(report.rows[2].ok());
    EXPECT_GT(report.rows[2].out.sim.cycles, 0u);

    const SuiteRow *bad = report.row("gcc");
    ASSERT_NE(bad, nullptr);
    EXPECT_FALSE(bad->ok());
    EXPECT_EQ(bad->status.code(), ErrorCode::CorruptTrace);
    // Context names the workload, outermost first.
    EXPECT_NE(bad->status.message().find("workload 'gcc'"),
              std::string::npos);
}

TEST(Suite, UnknownWorkloadBecomesErroredRow)
{
    SuiteReport report = runSuiteParallel(
        {"go", "nonesuch"}, registryFactory(2000, 3), baselineConfig());
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_TRUE(report.rows[0].ok());
    EXPECT_FALSE(report.rows[1].ok());
    EXPECT_EQ(report.rows[1].status.code(), ErrorCode::NotFound);
}

TEST(Suite, ThrowingFactoryIsIsolated)
{
    auto factory = [](const std::string &name)
        -> Expected<std::unique_ptr<TraceSource>> {
        if (name == "go")
            throw std::runtime_error("factory exploded");
        return makeWorkloadChecked(name, 1000, 3);
    };
    SuiteReport report =
        runSuiteParallel({"go", "perl"}, factory, baselineConfig());
    EXPECT_FALSE(report.rows[0].ok());
    EXPECT_EQ(report.rows[0].status.code(), ErrorCode::Internal);
    EXPECT_TRUE(report.rows[1].ok());
}

TEST(Suite, FullSuiteSweepAllOk)
{
    SuiteReport report = runSuiteParallel(
        workloadNames(), registryFactory(1000, 3), baselineConfig());
    EXPECT_EQ(report.rows.size(), 16u);
    EXPECT_TRUE(report.allOk());
}

TEST(Experiment, RunOutputCarriesBothViews)
{
    auto wl = makeWorkload("swim", 4000, 1);
    VectorTrace t = VectorTrace::capture(*wl);
    RunOutput r = runTiming(t, baselineConfig());
    EXPECT_EQ(r.sim.memRefs, 4000u);
    EXPECT_EQ(r.mem.accesses, 4000u);
    EXPECT_GT(r.sim.cycles, 0u);
}

} // namespace
} // namespace ccm
