/**
 * @file
 * Tests for the statistical sampling engine (src/sample): the SHARDS
 * miss-ratio-curve profiler, the representative-interval selector,
 * the geometry recommendation, the top-level analysis entry point,
 * and the kind:"sample" observability document.
 *
 * The load-bearing properties:
 *  - rate 1.0 is *exact*: the profiler's per-capacity miss counts
 *    must equal a brute-force FaLru simulation at each capacity;
 *  - everything is deterministic for a fixed (records, config);
 *  - k == #windows interval replay reconstructs the whole-trace
 *    classify counters exactly (every window replayed, weights tile);
 *  - the degenerate-footprint guard re-runs tiny-footprint traces at
 *    a boosted rate instead of shipping a vacuous curve;
 *  - the one-pass sample lane gives the same analysis from every
 *    kind of source (generator, packed and delta files, a span), and
 *    its stream, boost re-run and checkpointed replay each equal a naive
 *    model of what they replace;
 *  - the curve, built one lane per point, equals a naive one-list-per-
 *    point SHARDS reference (tests/ref/mrc_ref.hh) bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "cache/fa_lru.hh"
#include "common/random.hh"
#include "common/sample_hash.hh"
#include "obs/sink.hh"
#include "sample/engine.hh"
#include "sample/intervals.hh"
#include "sample/mrc.hh"
#include "sample/recommend.hh"
#include "sim/sharded.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "trace/wire.hh"
#include "workloads/registry.hh"

#include "ref/mrc_ref.hh"

namespace
{

using namespace ccm;
using namespace ccm::sample;

std::vector<MemRecord>
captureRecords(const std::string &name, std::size_t refs)
{
    auto wl = makeWorkload(name, refs, 42);
    EXPECT_NE(wl, nullptr) << name;
    return VectorTrace::capture(*wl).records();
}

/** Brute-force misses of a fully-associative LRU of @p lines. */
Count
faLruMisses(const std::vector<MemRecord> &recs, std::size_t lines)
{
    const CacheGeometry geom(64, 1, 64);
    FaLru fa(lines);
    Count misses = 0;
    for (const MemRecord &r : recs) {
        if (!r.isMem())
            continue;
        const LineAddr line = geom.lineOf(r.dataAddr());
        if (!fa.touchOrInsert(line))
            ++misses;
    }
    return misses;
}

TEST(SampleMrc, RateOneMatchesBruteForcePerCapacity)
{
    const auto recs = captureRecords("tomcatv", 50'000);

    MrcConfig cfg;
    cfg.rate = 1.0;
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok()) << mrc.status().toString();

    for (const MrcPoint &p : mrc.value().points) {
        SCOPED_TRACE(p.capacityBytes);
        EXPECT_EQ(p.bankLines, p.capacityLines); // no scaling at 1.0
        EXPECT_EQ(p.sampledMisses,
                  faLruMisses(recs, p.capacityLines));
        EXPECT_NEAR(p.missRatio,
                    double(p.sampledMisses) /
                        double(mrc.value().totalRefs),
                    1e-12);
    }
}

TEST(SampleMrc, CurveIsMonotoneNonIncreasing)
{
    const auto recs = captureRecords("gcc", 80'000);
    MrcConfig cfg;
    cfg.rate = 0.05;
    cfg.minSampledLines = 0; // observe the raw 5% pass
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok());
    const auto &pts = mrc.value().points;
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LE(pts[i].missRatio, pts[i - 1].missRatio + 1e-12);
}

TEST(SampleMrc, DeterministicAcrossRuns)
{
    const auto recs = captureRecords("perl", 60'000);
    MrcConfig cfg;
    cfg.rate = 0.02;
    cfg.windowRefs = 5'000;
    auto a = buildMrc(recs.data(), recs.size(), cfg);
    auto b = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().sampledRefs, b.value().sampledRefs);
    EXPECT_EQ(a.value().linesSampled, b.value().linesSampled);
    ASSERT_EQ(a.value().points.size(), b.value().points.size());
    for (std::size_t i = 0; i < a.value().points.size(); ++i) {
        EXPECT_EQ(a.value().points[i].sampledMisses,
                  b.value().points[i].sampledMisses);
        EXPECT_EQ(a.value().points[i].missRatio,
                  b.value().points[i].missRatio);
    }
    ASSERT_EQ(a.value().windows.size(), b.value().windows.size());
    for (std::size_t w = 0; w < a.value().windows.size(); ++w)
        EXPECT_EQ(a.value().windows[w].sampledMisses,
                  b.value().windows[w].sampledMisses);
}

TEST(SampleMrc, SeedSelectsADifferentSampleSet)
{
    const auto recs = captureRecords("vortex", 60'000);
    MrcConfig cfg;
    cfg.rate = 0.05;
    cfg.minSampledLines = 0;
    auto a = buildMrc(recs.data(), recs.size(), cfg);
    cfg.seed = 1234;
    auto b = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Different seeds sample different line sets; identical counts
    // for every point would mean the seed is ignored.
    EXPECT_NE(a.value().sampledRefs, b.value().sampledRefs);
}

TEST(SampleMrc, FixedSizeVariantHalvesAndBoundsTracking)
{
    const auto recs = captureRecords("gcc", 200'000);
    MrcConfig cfg;
    cfg.rate = 1.0; // start exact so halving must engage
    cfg.variant = ShardsVariant::FixedSize;
    cfg.maxSampledLines = 64;
    cfg.minSampledLines = 0;
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok());
    EXPECT_GT(mrc.value().thresholdHalvings, 0u);
    EXPECT_LT(mrc.value().finalRate, 1.0);
    // Each halving exactly halves the admission threshold.
    EXPECT_NEAR(mrc.value().finalRate,
                mrc.value().configuredRate /
                    std::pow(2.0, mrc.value().thresholdHalvings),
                1e-9);
    // Weighted mass still estimates the full reference count.
    EXPECT_GT(mrc.value().weightedRefs, 0.0);
}

TEST(SampleMrc, RateCorrectionPinsTotalMass)
{
    const auto recs = captureRecords("swim", 100'000);
    MrcConfig cfg;
    cfg.rate = 0.02;
    cfg.minSampledLines = 0;
    auto corrected = buildMrc(recs.data(), recs.size(), cfg);
    cfg.rateCorrection = false;
    auto raw = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(corrected.ok());
    ASSERT_TRUE(raw.ok());
    // Same sample set either way; only the estimate mapping differs.
    EXPECT_EQ(corrected.value().sampledRefs, raw.value().sampledRefs);
    EXPECT_TRUE(corrected.value().rateCorrected);
    EXPECT_FALSE(raw.value().rateCorrected);
}

TEST(SampleMrc, MinLinesGuardBoostsTinyFootprints)
{
    // A synthetic loop over a handful of lines: at 1% the sample
    // would hold almost nothing, so the guard must re-run boosted.
    std::vector<MemRecord> recs;
    MemRecord r;
    r.type = RecordType::Load;
    for (std::size_t i = 0; i < 200'000; ++i) {
        r.pc = 64 * (i % 7);
        r.addr = 64 * (i % 100); // 100-line footprint
        recs.push_back(r);
    }

    MrcConfig cfg;
    cfg.rate = 0.01;
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok());
    EXPECT_TRUE(mrc.value().minLinesBoost);
    EXPECT_GT(mrc.value().finalRate, cfg.rate);
    EXPECT_LE(mrc.value().finalRate,
              std::max(cfg.rate, cfg.maxBoostedRate) + 1e-12);

    // With the guard off the same pass ships the vacuous sample.
    cfg.minSampledLines = 0;
    auto raw = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(raw.ok());
    EXPECT_FALSE(raw.value().minLinesBoost);
    EXPECT_LT(raw.value().linesSampled, 16u);
}

TEST(SampleMrc, WindowsTileTheWholeTrace)
{
    const auto recs = captureRecords("li", 64'000);
    MrcConfig cfg;
    cfg.rate = 0.05;
    cfg.windowRefs = 10'000;
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok());
    const auto &ws = mrc.value().windows;
    ASSERT_FALSE(ws.empty());
    Count covered = 0;
    Count expect_first = 1;
    for (const WindowSignature &w : ws) {
        EXPECT_EQ(w.firstRef, expect_first);
        EXPECT_GE(w.lastRef, w.firstRef);
        covered += w.lastRef - w.firstRef + 1;
        expect_first = w.lastRef + 1;
        EXPECT_LE(w.sampledUniqueLines, w.sampledRefs);
        EXPECT_LE(w.sampledNewLines, w.sampledUniqueLines);
    }
    EXPECT_EQ(covered, mrc.value().totalRefs);
}

TEST(SampleIntervals, AllWindowsReplayedIsExact)
{
    // mgrid streams, so cold windows (no warmup) already match the
    // exact run.  gcc reuses lines across windows: its warmup reaches
    // back to record 0, so each window's replay is a prefix of the
    // exact run and every counter must match, not just the two
    // checked for both inputs.
    struct Input
    {
        const char *workload;
        Count warmupRefs;
    };
    for (const Input in : {Input{"mgrid", 0}, Input{"gcc", 60'000}}) {
        SCOPED_TRACE(in.workload);
        const auto recs = captureRecords(in.workload, 60'000);
        MrcConfig mcfg;
        mcfg.rate = 0.05;
        mcfg.windowRefs = 10'000;
        auto mrc = buildMrc(recs.data(), recs.size(), mcfg);
        ASSERT_TRUE(mrc.ok());

        ShardedClassifyConfig ccfg;
        IntervalConfig icfg;
        icfg.k = mrc.value().windows.size(); // replay everything
        icfg.warmupRefs = in.warmupRefs;
        auto res = reconstructFromIntervals(recs.data(), recs.size(),
                                            mrc.value(), ccfg, icfg);
        ASSERT_TRUE(res.ok()) << res.status().toString();

        const ShardedClassifyResult exact =
            runShardedClassify(recs.data(), recs.size(), ccfg);

        // Every window is its own cluster with weight refs/total, so
        // the reconstruction is the exact whole-trace count, stat by
        // stat.
        double wsum = 0.0;
        for (const auto &rep : res.value().reps)
            wsum += rep.weight;
        EXPECT_NEAR(wsum, 1.0, 1e-9);
        const auto *misses = res.value().find("l1_misses");
        ASSERT_NE(misses, nullptr);
        EXPECT_NEAR(misses->predicted, double(exact.mem.l1Misses),
                    double(exact.mem.l1Misses) * 1e-9 + 1e-6);
        const auto *accesses = res.value().find("accesses");
        ASSERT_NE(accesses, nullptr);
        EXPECT_NEAR(accesses->predicted, double(exact.mem.accesses),
                    1e-6);
        if (in.warmupRefs < exact.references)
            continue;
        MemStats::forEachField([&](const char *name,
                                   Count MemStats::*f) {
            EXPECT_EQ(res.value().predicted.*f, exact.mem.*f)
                << "counter " << name;
        });
    }
}

TEST(SampleIntervals, DeterministicSelection)
{
    const auto recs = captureRecords("applu", 120'000);
    MrcConfig mcfg;
    mcfg.rate = 0.05;
    mcfg.windowRefs = 10'000;
    auto mrc = buildMrc(recs.data(), recs.size(), mcfg);
    ASSERT_TRUE(mrc.ok());

    ShardedClassifyConfig ccfg;
    IntervalConfig icfg;
    icfg.k = 3;
    auto a = reconstructFromIntervals(recs.data(), recs.size(),
                                      mrc.value(), ccfg, icfg);
    auto b = reconstructFromIntervals(recs.data(), recs.size(),
                                      mrc.value(), ccfg, icfg);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().reps.size(), b.value().reps.size());
    for (std::size_t i = 0; i < a.value().reps.size(); ++i) {
        EXPECT_EQ(a.value().reps[i].windowIndex,
                  b.value().reps[i].windowIndex);
        EXPECT_EQ(a.value().reps[i].weight,
                  b.value().reps[i].weight);
    }
    for (std::size_t i = 0; i < a.value().stats.size(); ++i)
        EXPECT_EQ(a.value().stats[i].predicted,
                  b.value().stats[i].predicted);
}

TEST(SampleIntervals, ColdStartWindowIsPinnedAsRepresentative)
{
    const auto recs = captureRecords("turb3d", 120'000);
    MrcConfig mcfg;
    mcfg.rate = 0.05;
    mcfg.windowRefs = 10'000;
    auto mrc = buildMrc(recs.data(), recs.size(), mcfg);
    ASSERT_TRUE(mrc.ok());

    ShardedClassifyConfig ccfg;
    IntervalConfig icfg;
    icfg.k = 4;
    auto res = reconstructFromIntervals(recs.data(), recs.size(),
                                        mrc.value(), ccfg, icfg);
    ASSERT_TRUE(res.ok());
    // Window 0 carries the cold-start first-touch misses no steady
    // phase resembles; it must survive as its own singleton cluster.
    bool window0 = false;
    for (const auto &rep : res.value().reps) {
        if (rep.windowIndex == 0) {
            window0 = true;
            EXPECT_EQ(rep.clusterSize, 1u);
        }
    }
    EXPECT_TRUE(window0);
}

TEST(SampleRecommend, SteeperCurvesGetDeeperBuffers)
{
    MrcResult mrc;
    auto point = [&](std::size_t kb, double ratio) {
        MrcPoint p;
        p.capacityBytes = kb * 1024;
        p.capacityLines = p.capacityBytes / 64;
        p.missRatio = ratio;
        mrc.points.push_back(p);
    };
    // Flat curve: shallow buffer, no assist.
    point(16, 0.10);
    point(32, 0.099);
    point(64, 0.098);
    auto flat = recommendGeometry(mrc, 16 * 1024);
    EXPECT_EQ(flat.bufEntries, 4u);
    EXPECT_FALSE(flat.useAssist());

    // Steep knee right past 16KB: deep buffer, victim partition.
    mrc.points.clear();
    point(16, 0.30);
    point(32, 0.05);
    point(64, 0.04);
    auto steep = recommendGeometry(mrc, 16 * 1024);
    EXPECT_EQ(steep.bufEntries, 32u);
    EXPECT_TRUE(steep.victimConflicts);
    EXPECT_TRUE(steep.excludeCapacity); // gain4x 0.26 > 0.05
    EXPECT_FALSE(steep.prefetchCapacity);

    // Still missing hard at the top of the grid: prefetch indicated.
    mrc.points.clear();
    point(16, 0.5);
    point(32, 0.5);
    point(64, 0.45);
    auto stream = recommendGeometry(mrc, 16 * 1024);
    EXPECT_TRUE(stream.prefetchCapacity);
    EXPECT_FALSE(stream.rationale.empty());
}

TEST(SampleEngine, EndToEndWithExactComparison)
{
    const auto recs = captureRecords("compress", 100'000);
    SampleRunConfig cfg;
    cfg.mrc.rate = 0.05;
    cfg.intervals = 4;
    cfg.compareExact = true;
    auto rep = runSampleAnalysis(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();

    EXPECT_TRUE(rep.value().hasIntervals);
    EXPECT_TRUE(rep.value().hasExact);
    EXPECT_GE(rep.value().mrcMaxError, rep.value().mrcMae);
    EXPECT_GT(rep.value().wallSecondsSampled, 0.0);
    EXPECT_GT(rep.value().wallSecondsExact, 0.0);
    // The exact reference really is exact.
    EXPECT_EQ(rep.value().exactMrc.finalRate, 1.0);

    // The document round-trips through the validator and carries
    // the error bars the acceptance criteria require.
    obs::JsonValue doc = obs::sampleDocument("compress", rep.value());
    Status valid = obs::validateStatsDoc(doc);
    EXPECT_TRUE(valid.isOk()) << valid.toString();
    const obs::JsonValue *stats =
        doc.at("intervals").get("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_FALSE(stats->elements().empty());
    for (const auto &s : stats->elements()) {
        EXPECT_NE(s.get("error_bar"), nullptr);
        EXPECT_NE(s.get("predicted"), nullptr);
    }
    const obs::JsonValue *sampling = doc.get("sampling");
    ASSERT_NE(sampling, nullptr);
    EXPECT_NE(sampling->get("min_lines_boost"), nullptr);
}

TEST(SampleEngine, RejectsBadConfigs)
{
    const auto recs = captureRecords("go", 10'000);
    SampleRunConfig cfg;
    cfg.mrc.rate = 0.0;
    EXPECT_FALSE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
    cfg.mrc.rate = 1.5;
    EXPECT_FALSE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
    cfg.mrc.rate = 0.5;
    cfg.mrc.capacitiesBytes = {32 * 1024, 16 * 1024}; // not ascending
    EXPECT_FALSE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
    cfg.mrc.capacitiesBytes.clear();
    ASSERT_TRUE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
    // Classifier shapes reach the exact run and the interval replay.
    cfg.classify.mctDepth = 0;
    cfg.compareExact = true;
    EXPECT_FALSE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
    cfg.classify.mctDepth = 1;
    cfg.classify.mctTagBits = 99;
    cfg.compareExact = false;
    cfg.intervals = 4;
    EXPECT_FALSE(runSampleAnalysis(recs.data(), recs.size(), cfg).ok());
}

// ---- one decode pass, every source -----------------------------------

/** Sampled refs per window by the admission test, applied directly. */
std::vector<Count>
naiveWindowSampledRefs(const std::vector<MemRecord> &recs,
                       const MrcConfig &cfg, Count &total_refs,
                       Count &lines)
{
    const SamplingPredicate pred =
        SamplingPredicate::make(cfg.rate, cfg.seed).value();
    std::vector<Count> per_window;
    std::vector<Addr> seen;
    total_refs = 0;
    for (const MemRecord &r : recs) {
        if (!r.isMem())
            continue;
        const std::size_t w = total_refs++ / cfg.windowRefs;
        if (per_window.size() <= w)
            per_window.resize(w + 1, 0);
        const LineAddr line{r.addr & ~Addr{cfg.lineBytes - 1u}};
        if (pred.sampled(line)) {
            ++per_window[w];
            seen.push_back(line.value());
        }
    }
    std::sort(seen.begin(), seen.end());
    lines = static_cast<Count>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
    return per_window;
}

TEST(SampleMrc, SampledStreamMatchesTheAdmissionTest)
{
    // A low rate and short windows leave some windows with no sampled
    // reference; each must still be emitted at its boundary.
    const auto recs = captureRecords("gcc", 50'000);
    MrcConfig cfg;
    cfg.rate = 0.002;
    cfg.minSampledLines = 0;
    cfg.windowRefs = 700;
    auto mrc = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(mrc.ok()) << mrc.status().toString();

    Count total = 0;
    Count lines = 0;
    const std::vector<Count> want =
        naiveWindowSampledRefs(recs, cfg, total, lines);
    EXPECT_EQ(mrc.value().totalRefs, total);
    EXPECT_EQ(mrc.value().linesSampled, lines);
    const auto &ws = mrc.value().windows;
    ASSERT_EQ(ws.size(), want.size());
    bool some_empty = false;
    Count sampled = 0;
    for (std::size_t w = 0; w < ws.size(); ++w) {
        SCOPED_TRACE(w);
        EXPECT_EQ(ws[w].firstRef, w * cfg.windowRefs + 1);
        EXPECT_EQ(ws[w].lastRef,
                  std::min<Count>((w + 1) * cfg.windowRefs, total));
        EXPECT_EQ(ws[w].sampledRefs, want[w]);
        some_empty |= want[w] == 0;
        sampled += want[w];
    }
    EXPECT_TRUE(some_empty);
    EXPECT_EQ(mrc.value().sampledRefs, sampled);
}

/** Every field of two MRC results, window starts aside. */
void
expectSameMrc(const MrcResult &want, const MrcResult &got)
{
    EXPECT_EQ(got.totalRefs, want.totalRefs);
    EXPECT_EQ(got.sampledRefs, want.sampledRefs);
    EXPECT_EQ(got.linesSampled, want.linesSampled);
    EXPECT_EQ(got.weightedRefs, want.weightedRefs);
    EXPECT_EQ(got.configuredRate, want.configuredRate);
    EXPECT_EQ(got.finalRate, want.finalRate);
    EXPECT_EQ(got.thresholdHalvings, want.thresholdHalvings);
    EXPECT_EQ(got.minLinesBoost, want.minLinesBoost);
    EXPECT_EQ(got.windowRefs, want.windowRefs);
    ASSERT_EQ(got.points.size(), want.points.size());
    for (std::size_t i = 0; i < want.points.size(); ++i) {
        EXPECT_EQ(got.points[i].capacityBytes,
                  want.points[i].capacityBytes);
        EXPECT_EQ(got.points[i].bankLines, want.points[i].bankLines);
        EXPECT_EQ(got.points[i].sampledMisses,
                  want.points[i].sampledMisses);
        EXPECT_EQ(got.points[i].missRatio, want.points[i].missRatio);
    }
    ASSERT_EQ(got.windows.size(), want.windows.size());
    for (std::size_t w = 0; w < want.windows.size(); ++w) {
        const WindowSignature &a = want.windows[w];
        const WindowSignature &b = got.windows[w];
        EXPECT_EQ(b.firstRef, a.firstRef) << "window " << w;
        EXPECT_EQ(b.lastRef, a.lastRef) << "window " << w;
        EXPECT_EQ(b.sampledRefs, a.sampledRefs) << "window " << w;
        EXPECT_EQ(b.sampledMisses, a.sampledMisses) << "window " << w;
        EXPECT_EQ(b.sampledNewLines, a.sampledNewLines) << "window " << w;
        EXPECT_EQ(b.sampledUniqueLines, a.sampledUniqueLines)
            << "window " << w;
    }
}

void
expectSameStats(const MemStats &want, const MemStats &got)
{
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(got.*f, want.*f) << "counter " << name;
    });
}

void
expectSameReport(const SampleReport &want, const SampleReport &got)
{
    expectSameMrc(want.mrc, got.mrc);
    ASSERT_EQ(got.hasIntervals, want.hasIntervals);
    if (want.hasIntervals) {
        const IntervalResult &a = want.intervals;
        const IntervalResult &b = got.intervals;
        EXPECT_EQ(b.windows, a.windows);
        EXPECT_EQ(b.clusters, a.clusters);
        EXPECT_EQ(b.replayedRefs, a.replayedRefs);
        ASSERT_EQ(b.reps.size(), a.reps.size());
        for (std::size_t i = 0; i < a.reps.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(b.reps[i].windowIndex, a.reps[i].windowIndex);
            EXPECT_EQ(b.reps[i].weight, a.reps[i].weight);
            expectSameStats(a.reps[i].delta, b.reps[i].delta);
        }
        expectSameStats(a.predicted, b.predicted);
    }
    ASSERT_EQ(got.hasExact, want.hasExact);
    if (want.hasExact) {
        expectSameMrc(want.exactMrc, got.exactMrc);
        expectSameStats(want.exactClassify.mem, got.exactClassify.mem);
    }
}

/** @p recs written as packed, delta and damaged packed trace files. */
class SampleSourceFiles
{
  public:
    SampleSourceFiles(const std::string &tag,
                      const std::vector<MemRecord> &recs)
    {
        const std::string base = ::testing::TempDir() + "ccm_sample_" + tag;
        packed = base + ".bin";
        delta = base + ".d.bin";
        damaged = base + ".dmg.bin";
        write(packed, TraceEncoding::Packed, recs);
        write(delta, TraceEncoding::Delta, recs);

        // Two garbage runs between whole records: the tolerant reader
        // resyncs past both and walks a three-run defect map that
        // still delivers every record.
        std::ifstream in(packed, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        const std::size_t header = 16;
        for (std::size_t from : {recs.size() * 2 / 3, recs.size() / 3}) {
            const std::size_t at = cleanResyncPoint(recs, from);
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                             header + at * wire::recordBytes),
                         kGarbage, static_cast<char>(0xFF));
        }
        std::ofstream(damaged, std::ios::binary)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    }

    ~SampleSourceFiles()
    {
        std::remove(packed.c_str());
        std::remove(delta.c_str());
        std::remove(damaged.c_str());
    }

    SampleSourceFiles(const SampleSourceFiles &) = delete;
    SampleSourceFiles &operator=(const SampleSourceFiles &) = delete;

    /** The three readers: clean packed, tolerant packed, delta. */
    std::vector<std::unique_ptr<TraceFileReader>>
    readers() const
    {
        std::vector<std::unique_ptr<TraceFileReader>> out;
        out.push_back(TraceFileReader::open(packed).take());
        TraceReadOptions tolerant;
        tolerant.corruptionBudget = 2;
        tolerant.quiet = true;
        out.push_back(TraceFileReader::open(damaged, tolerant).take());
        EXPECT_EQ(out.back()->packedRuns().size(), 3u);
        out.push_back(TraceFileReader::open(delta).take());
        return out;
    }

    std::string packed;
    std::string delta;
    std::string damaged;

  private:
    static constexpr std::size_t kGarbage = 31;

    /**
     * The first record at or after @p from that a garbage run can
     * precede without the resync finding a false record boundary in
     * the run or in the record's own first bytes.
     */
    static std::size_t
    cleanResyncPoint(const std::vector<MemRecord> &recs,
                     std::size_t from)
    {
        std::uint8_t buf[kGarbage + wire::recordBytes];
        std::fill(buf, buf + kGarbage, std::uint8_t{0xFF});
        for (std::size_t at = from;; ++at) {
            wire::packRecord(recs.at(at), buf + kGarbage);
            bool clean = true;
            for (std::size_t j = 0; j < kGarbage; ++j)
                clean = clean && !wire::plausibleRecord(buf + j);
            if (clean)
                return at;
        }
    }

    static void
    write(const std::string &path, TraceEncoding enc,
          const std::vector<MemRecord> &recs)
    {
        auto w = TraceFileWriter::create(path, enc);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        VectorTrace src("recs", recs);
        ASSERT_TRUE(w.value()->writeAll(src).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
};

TEST(SampleEngine, EverySourceGivesTheSameAnalysis)
{
    struct Case
    {
        const char *label;
        const char *workload;
        std::size_t refs;
        SampleRunConfig cfg;
        /** The case really exercises what it names. */
        bool (*exercised)(const SampleReport &);
    };
    std::vector<Case> cases;
    auto add = [&](const char *label, const char *workload,
                   std::size_t refs, auto tweak,
                   bool (*exercised)(const SampleReport &)) {
        Case c{label, workload, refs, {}, exercised};
        c.cfg.mrc.rate = 0.05;
        c.cfg.intervals = 4;
        c.cfg.interval.warmupRefs = 3'000;
        tweak(c.cfg);
        cases.push_back(c);
    };
    add("boost", "gcc", 60'000,
        [](SampleRunConfig &c) { c.mrc.rate = 0.01; },
        [](const SampleReport &r) { return r.mrc.minLinesBoost; });
    add("fixed-size halving", "tomcatv", 60'000,
        [](SampleRunConfig &c) {
            c.mrc.variant = ShardsVariant::FixedSize;
            c.mrc.maxSampledLines = 64;
        },
        [](const SampleReport &r) {
            return r.mrc.thresholdHalvings > 0;
        });
    add("rate 1.0", "compress", 40'000,
        [](SampleRunConfig &c) {
            c.mrc.rate = 1.0;
            c.compareExact = true;
        },
        [](const SampleReport &r) {
            return r.mrc.finalRate == 1.0 && r.hasExact;
        });
    add("warm-up reaches ref 1", "li", 60'000,
        [](SampleRunConfig &c) { c.interval.warmupRefs = 1'000'000; },
        [](const SampleReport &r) { return r.hasIntervals; });
    add("short tail window", "applu", 50'000,
        [](SampleRunConfig &c) { c.mrc.windowRefs = 7'000; },
        [](const SampleReport &r) {
            const WindowSignature &tail = r.mrc.windows.back();
            return tail.lastRef - tail.firstRef + 1 < 7'000;
        });
    add("window with no sampled ref", "gcc", 50'000,
        [](SampleRunConfig &c) {
            c.mrc.rate = 0.002;
            c.mrc.minSampledLines = 0;
            c.mrc.windowRefs = 700;
            c.intervals = 30;
        },
        [](const SampleReport &r) {
            for (const WindowSignature &w : r.mrc.windows)
                if (w.sampledRefs == 0)
                    return true;
            return false;
        });
    add("k = n", "perl", 40'000,
        [](SampleRunConfig &c) {
            c.mrc.windowRefs = 5'000;
            c.intervals = 8;
        },
        [](const SampleReport &r) {
            return r.intervals.clusters == r.intervals.windows;
        });

    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        const auto recs = captureRecords(c.workload, c.refs);
        auto want = runSampleAnalysis(recs.data(), recs.size(), c.cfg);
        ASSERT_TRUE(want.ok()) << want.status().toString();
        EXPECT_TRUE(c.exercised(want.value()));

        auto gen = makeWorkload(c.workload, c.refs, 42);
        auto got = runSampleAnalysis(*gen, c.cfg);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        {
            SCOPED_TRACE("generator");
            expectSameReport(want.value(), got.value());
        }

        const SampleSourceFiles files(c.workload, recs);
        for (const auto &rd : files.readers()) {
            SCOPED_TRACE(rd->name());
            ASSERT_EQ(rd->size(), recs.size());
            auto file = runSampleAnalysis(*rd, c.cfg);
            ASSERT_TRUE(file.ok()) << file.status().toString();
            expectSameReport(want.value(), file.value());
        }
    }
}

TEST(SampleMrc, BoostedPassEqualsDirectPassAtBoostedRate)
{
    const auto recs = captureRecords("gcc", 60'000);
    MrcConfig cfg;
    cfg.rate = 0.01;
    cfg.windowRefs = 6'000;
    auto boosted = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(boosted.ok());
    ASSERT_TRUE(boosted.value().minLinesBoost);

    // The boosted rate, configured directly with the guard off: the
    // same pass, apart from what names the configured rate.
    MrcConfig direct = cfg;
    direct.rate = boosted.value().finalRate;
    direct.minSampledLines = 0;
    auto plain = buildMrc(recs.data(), recs.size(), direct);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().minLinesBoost);
    EXPECT_GT(plain.value().configuredRate,
              boosted.value().configuredRate);

    MrcResult expect = plain.take();
    expect.configuredRate = boosted.value().configuredRate;
    expect.minLinesBoost = true;
    expectSameMrc(expect, boosted.value());
}

/**
 * Each representative's counters by the plain definition: a fresh
 * kernel takes refs [max(1, first - warmup), first) uncounted, then
 * counts [first, last].
 */
void
expectNaiveReplay(const std::vector<MemRecord> &recs,
                  const IntervalResult &got,
                  const ShardedClassifyConfig &ccfg, Count warmup)
{
    std::vector<const MemRecord *> mem;
    for (const MemRecord &r : recs)
        if (r.isMem())
            mem.push_back(&r);
    Count replayed = 0;
    for (const RepresentativeWindow &rep : got.reps) {
        SCOPED_TRACE(rep.windowIndex);
        const Count from =
            rep.firstRef > warmup ? rep.firstRef - warmup : 1;
        ClassifyKernel kernel(ccfg);
        MemStats discarded;
        MemStats counted;
        for (Count ord = from; ord <= rep.lastRef; ++ord) {
            const MemRecord &r = *mem[ord - 1];
            classifyCounted(kernel, r.dataAddr(), r.isStore(),
                            ord < rep.firstRef ? discarded : counted);
        }
        replayed += rep.lastRef - from + 1;
        expectSameStats(counted, rep.delta);
    }
    EXPECT_EQ(got.replayedRefs, replayed);
}

TEST(SampleIntervals, SeekingReplayMatchesANaiveReplay)
{
    // Windows far apart and warm-ups that start inside an earlier
    // window: each replay starts at a checkpoint, and one that lands past
    // a warm-up start, or a warm-up one reference off, shows here.
    const auto recs = captureRecords("gcc", 120'000);
    const SampleSourceFiles files("replay", recs);
    SampleRunConfig cfg;
    cfg.mrc.rate = 0.05;
    cfg.mrc.windowRefs = 5'000;
    cfg.intervals = 6;
    for (const Count warmup : {Count{0}, Count{1}, Count{4'097},
                               Count{12'345}}) {
        SCOPED_TRACE(warmup);
        cfg.interval.warmupRefs = warmup;
        auto span = runSampleAnalysis(recs.data(), recs.size(), cfg);
        ASSERT_TRUE(span.ok()) << span.status().toString();
        expectNaiveReplay(recs, span.value().intervals, cfg.classify,
                          warmup);
        for (const auto &rd : files.readers()) {
            SCOPED_TRACE(rd->name());
            auto file = runSampleAnalysis(*rd, cfg);
            ASSERT_TRUE(file.ok()) << file.status().toString();
            expectNaiveReplay(recs, file.value().intervals,
                              cfg.classify, warmup);
        }
    }
}

/** @p got equals the naive reference @p want, field by field. */
void
expectMatchesRef(const MrcResult &got, const ref::RefMrc &want)
{
    EXPECT_EQ(got.totalRefs, want.totalRefs);
    EXPECT_EQ(got.sampledRefs, want.sampledRefs);
    EXPECT_EQ(got.linesSampled, want.linesSampled);
    EXPECT_EQ(got.weightedRefs, want.weightedRefs);
    EXPECT_EQ(got.finalRate, want.finalRate);
    EXPECT_EQ(got.thresholdHalvings, want.halvings);
    EXPECT_EQ(got.minLinesBoost, want.boosted);
    ASSERT_EQ(got.points.size(), want.points.size());
    for (std::size_t i = 0; i < got.points.size(); ++i) {
        SCOPED_TRACE(got.points[i].capacityBytes);
        EXPECT_EQ(got.points[i].capacityLines, want.points[i].capacityLines);
        EXPECT_EQ(got.points[i].bankLines, want.points[i].bankLines);
        EXPECT_EQ(got.points[i].sampledMisses, want.points[i].misses);
        EXPECT_EQ(got.points[i].missRatio, want.points[i].missRatio);
    }
    ASSERT_EQ(got.windows.size(), want.windows.size());
    for (std::size_t w = 0; w < got.windows.size(); ++w) {
        SCOPED_TRACE(w);
        const WindowSignature &g = got.windows[w];
        const ref::RefMrcWindow &r = want.windows[w];
        EXPECT_EQ(g.firstRef, r.firstRef);
        EXPECT_EQ(g.lastRef, r.lastRef);
        EXPECT_EQ(g.sampledRefs, r.sampledRefs);
        EXPECT_EQ(g.sampledMisses, r.misses);
        EXPECT_EQ(g.sampledNewLines, r.newLines);
        EXPECT_EQ(g.sampledUniqueLines, r.uniqueLines);
    }
}

/** @p refs seeded random records over @p lines 64-byte lines. */
std::vector<MemRecord>
randomRecords(std::uint64_t seed, std::size_t refs, std::uint32_t lines)
{
    Pcg32 rng(seed);
    std::vector<MemRecord> out;
    // A hot set of a sixteenth of the lines takes half the references,
    // so the small points hit as well as miss.
    for (std::size_t i = 0; i < refs; ++i) {
        MemRecord r;
        r.pc = 0x400000 + 4 * i;
        const std::uint32_t kind = rng.below(8);
        if (kind < 2) {
            out.push_back(r); // non-memory
            continue;
        }
        r.type = kind < 6 ? RecordType::Load : RecordType::Store;
        const std::uint32_t line =
            rng.below(2) == 0 ? rng.below(std::max(1u, lines / 16))
                              : rng.below(lines);
        r.addr = 0x10000000 + std::uint64_t{line} * 64 + rng.below(64);
        out.push_back(r);
    }
    return out;
}

TEST(SampleMrc, LanesMatchANaiveReferenceOnRandomTraces)
{
    struct Case
    {
        const char *name;
        double rate;
        ShardsVariant variant;
        std::size_t maxLines;
        Count windowRefs;
        bool correction;
        std::size_t minLines;
    };
    const Case cases[] = {
        {"exact", 1.0, ShardsVariant::FixedRate, 0, 0, true, 0},
        {"rate 0.3 windows", 0.3, ShardsVariant::FixedRate, 0, 997, true,
         0},
        {"uncorrected", 0.3, ShardsVariant::FixedRate, 0, 1'000, false,
         0},
        {"fixed-size", 1.0, ShardsVariant::FixedSize, 150, 613, true, 0},
        {"fixed-size deep", 0.5, ShardsVariant::FixedSize, 40, 2'000,
         true, 0},
        {"boost", 0.02, ShardsVariant::FixedRate, 0, 1'500, true, 400},
        {"fixed-size boost", 0.02, ShardsVariant::FixedSize, 30, 1'500,
         true, 400},
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto recs = randomRecords(seed, 12'000, 1'200);
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(c.name) + " seed " +
                         std::to_string(seed));
            MrcConfig cfg;
            cfg.capacitiesBytes = {64, 1'024, 2'048, 4'096, 16'384,
                                   65'536, 262'144};
            cfg.rate = c.rate;
            cfg.seed = seed * 11;
            cfg.variant = c.variant;
            cfg.maxSampledLines = c.maxLines;
            cfg.windowRefs = c.windowRefs;
            cfg.rateCorrection = c.correction;
            cfg.minSampledLines = c.minLines;
            cfg.maxBoostedRate = 0.5;
            auto got = buildMrc(recs.data(), recs.size(), cfg);
            ASSERT_TRUE(got.ok()) << got.status().toString();
            expectMatchesRef(got.value(), ref::refMrc(recs, cfg));
            if (c.variant == ShardsVariant::FixedSize) {
                EXPECT_GT(got.value().thresholdHalvings, 0u);
            }
            if (c.minLines > 0) {
                EXPECT_TRUE(got.value().minLinesBoost);
            }
        }
    }
}

TEST(SampleMrc, LanesMatchANaiveReferenceOnWorkloadShapes)
{
    for (const char *name : {"gcc", "li", "tomcatv"}) {
        const auto recs = captureRecords(name, 40'000);
        for (ShardsVariant variant :
             {ShardsVariant::FixedRate, ShardsVariant::FixedSize}) {
            SCOPED_TRACE(std::string(name) + " " + toString(variant));
            MrcConfig cfg;
            cfg.capacitiesBytes = defaultCapacities();
            cfg.rate = 0.05;
            cfg.variant = variant;
            cfg.maxSampledLines = 40;
            cfg.windowRefs = 1'250;
            auto got = buildMrc(recs.data(), recs.size(), cfg);
            ASSERT_TRUE(got.ok()) << got.status().toString();
            expectMatchesRef(got.value(), ref::refMrc(recs, cfg));
            if (variant == ShardsVariant::FixedSize) {
                EXPECT_GT(got.value().thresholdHalvings, 0u);
            }
        }
    }
}

TEST(SampleMrc, PurgeBreaksInclusionAndTheBanksFollowEachPoint)
{
    // Under fixed-size purges a bank is not the top of one LRU stack:
    // a bank of 4 lines holds [c b a d] when the halving purges a, b
    // and c and shrinks it to 2, so it keeps [d] only, while the
    // stack's top 2 after the purge is [d f].  The next reference to
    // f misses the bank but sits at stack depth 2.
    const std::uint64_t seed = 42;
    const SamplingPredicate hash = SamplingPredicate::make(1.0, seed).value();
    const std::uint64_t half = SamplingPredicate::kModulus / 2;
    std::vector<Addr> low, high;
    for (Addr line = 64; low.size() < 3 || high.size() < 3; line += 64)
        (hash.bucketOf(LineAddr{line}) < half ? low : high)
            .push_back(line);
    const Addr e = low[0], f = low[1], d = low[2];
    const Addr a = high[0], b = high[1], c = high[2];
    std::vector<MemRecord> recs;
    for (Addr line : {e, f, d, a, b, c, f}) {
        MemRecord r;
        r.type = RecordType::Load;
        r.addr = line;
        recs.push_back(r);
    }

    MrcConfig cfg;
    cfg.capacitiesBytes = {4 * 64};
    cfg.rate = 1.0;
    cfg.seed = seed;
    cfg.variant = ShardsVariant::FixedSize;
    cfg.maxSampledLines = 5;
    cfg.minSampledLines = 0;
    auto got = buildMrc(recs.data(), recs.size(), cfg);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value().thresholdHalvings, 1u);
    EXPECT_EQ(got.value().points[0].bankLines, 2u);
    EXPECT_EQ(got.value().points[0].sampledMisses, 7u);
    expectMatchesRef(got.value(), ref::refMrc(recs, cfg));

    // One LRU stack, purged alike, read at depth <= the point's lines.
    std::list<Addr> stack;
    std::size_t lines = 4;
    Count stack_misses = 0;
    for (const MemRecord &r : recs) {
        const auto it = std::find(stack.begin(), stack.end(), r.addr);
        if (it == stack.end() ||
            std::distance(stack.begin(), it) >=
                static_cast<std::ptrdiff_t>(lines))
            ++stack_misses;
        if (it != stack.end())
            stack.erase(it);
        stack.push_front(r.addr);
        if (r.addr == c) {
            stack.remove(a);
            stack.remove(b);
            stack.remove(c);
            lines = 2;
        }
    }
    EXPECT_EQ(stack_misses, 6u);
}

} // namespace
