/**
 * @file
 * The raw-speed core's correctness gates:
 *
 *  - runShardedClassify must produce byte-identical statistics for
 *    every shard count (the inline K=1 path is the sequential
 *    reference), including shard counts above the set count and prime
 *    counts that stripe sets unevenly;
 *  - the sharded engine must agree with the oracle-bearing
 *    classifyRun on everything both compute (references, misses, MCT
 *    conflict verdicts), at every valid line size, 1 byte included;
 *  - the timing model's baseline machine must agree with the classify
 *    lane on every L1 and MCT counter and per-set histogram;
 *  - the partition pass must place window boundaries by references
 *    only, and the TraceSource overload must reset its reader and
 *    agree with the span overload on every reader and encoding;
 *  - TraceFileReader must deliver exactly the records the writer was
 *    given, for both encodings, and must reject damaged files with a
 *    Status at open() (its next() has no failure path);
 *  - the delta codec must round-trip arbitrary jumps (negative
 *    deltas included) and flag overlong varints and reserved control
 *    bits as the distinct defects tracecheck maps to exit codes
 *    10/11.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "hierarchy/memstats.hh"
#include "mct/classify_run.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"
#include "trace/delta.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "trace/wire.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

// ---- sharded classification --------------------------------------

/** Small geometry: 4KB direct-mapped-ish, 16 sets at assoc 4. */
ShardedClassifyConfig
smallConfig(unsigned shards, Count interval = 0)
{
    ShardedClassifyConfig cfg;
    cfg.cacheBytes = 4 * 1024;
    cfg.assoc = 4;
    cfg.lineBytes = 64;
    cfg.shards = shards;
    cfg.interval = interval;
    return cfg;
}

void
expectSameStats(const MemStats &a, const MemStats &b)
{
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(a.*f, b.*f) << "counter " << name;
    });
}

void
expectSameResult(const ShardedClassifyResult &ref,
                 const ShardedClassifyResult &got)
{
    EXPECT_EQ(ref.records, got.records);
    EXPECT_EQ(ref.references, got.references);
    EXPECT_EQ(ref.misses, got.misses);
    EXPECT_DOUBLE_EQ(ref.missRate, got.missRate);
    expectSameStats(ref.mem, got.mem);

    EXPECT_EQ(ref.heat.sets, got.heat.sets);
    EXPECT_EQ(ref.heat.l1Misses, got.heat.l1Misses);
    EXPECT_EQ(ref.heat.l1Evictions, got.heat.l1Evictions);
    EXPECT_EQ(ref.heat.mctLookups, got.heat.mctLookups);
    EXPECT_EQ(ref.heat.mctConflicts, got.heat.mctConflicts);

    ASSERT_EQ(ref.intervals.size(), got.intervals.size());
    for (std::size_t w = 0; w < ref.intervals.size(); ++w) {
        EXPECT_EQ(ref.intervals[w].firstRef, got.intervals[w].firstRef);
        EXPECT_EQ(ref.intervals[w].lastRef, got.intervals[w].lastRef);
        expectSameStats(ref.intervals[w].delta, got.intervals[w].delta);
    }
}

TEST(ShardedClassify, EveryShardCountMatchesSequential)
{
    auto wl = makeWorkload("gcc", 120'000, 7);
    VectorTrace trace = VectorTrace::capture(*wl);
    const MemRecord *recs = trace.records().data();
    const std::size_t n = trace.records().size();

    const ShardedClassifyResult ref =
        runShardedClassify(recs, n, smallConfig(1, 30'000));
    EXPECT_EQ(ref.references, Count{120'000});

    // 2 = even split, 7 = prime (uneven stripes), 64 = more shards
    // than the 16 sets (48 shards own nothing at all).
    for (unsigned shards : {2u, 7u, 64u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const ShardedClassifyResult got =
            runShardedClassify(recs, n, smallConfig(shards, 30'000));
        EXPECT_EQ(got.shards, shards);
        expectSameResult(ref, got);
    }
}

TEST(ShardedClassify, MaxShardCountMatchesOne)
{
    // K = UINT_MAX runs as one bucket per set on one worker per
    // hardware thread, never as 4 billion threads or buckets.
    auto wl = makeWorkload("gcc", 20'000, 3);
    VectorTrace trace = VectorTrace::capture(*wl);
    const MemRecord *recs = trace.records().data();
    const std::size_t n = trace.records().size();
    const unsigned most = std::numeric_limits<unsigned>::max();

    const ShardedClassifyResult ref =
        runShardedClassify(recs, n, smallConfig(1, 997));
    const ShardedClassifyResult got =
        runShardedClassify(recs, n, smallConfig(most, 997));
    EXPECT_EQ(got.shards, most);
    expectSameResult(ref, got);
    expectSameResult(ref, runShardedClassify(trace, smallConfig(most, 997)));
}

TEST(ShardedClassify, IntervalWindowsUseGlobalBoundaries)
{
    auto wl = makeWorkload("compress", 50'000, 3);
    VectorTrace trace = VectorTrace::capture(*wl);

    const ShardedClassifyResult res = runShardedClassify(
        trace.records().data(), trace.records().size(),
        smallConfig(4, 20'000));

    // 50k refs at a 20k interval: windows [1,20k], [20k+1,40k],
    // partial [40k+1,50k] — identical for every shard, so the merged
    // series must show exactly these boundaries.
    ASSERT_EQ(res.intervals.size(), 3u);
    EXPECT_EQ(res.intervals[0].firstRef, Count{1});
    EXPECT_EQ(res.intervals[0].lastRef, Count{20'000});
    EXPECT_EQ(res.intervals[2].firstRef, Count{40'001});
    EXPECT_EQ(res.intervals[2].lastRef, Count{50'000});

    // Sum of window deltas == final aggregates (the invariant
    // validateStatsDoc enforces on the emitted document).
    MemStats sum;
    for (const auto &s : res.intervals) {
        MemStats::forEachField(
            [&](const char *, Count MemStats::*f) {
                sum.*f += s.delta.*f;
            });
    }
    expectSameStats(res.mem, sum);
}

TEST(ShardedClassify, AgreesWithOracleBearingClassifyRun)
{
    auto wl = makeWorkload("go", 80'000, 11);
    VectorTrace trace = VectorTrace::capture(*wl);

    for (unsigned depth : {1u, 2u, 4u}) {
        for (unsigned tag_bits : {0u, 4u}) {
            for (unsigned assoc : {1u, 4u}) {
                SCOPED_TRACE("depth=" + std::to_string(depth) +
                             " tag_bits=" + std::to_string(tag_bits) +
                             " assoc=" + std::to_string(assoc));
                ShardedClassifyConfig cfg = smallConfig(3);
                cfg.assoc = assoc;
                cfg.mctDepth = depth;
                cfg.mctTagBits = tag_bits;

                const ClassifyConfig seq = cfg;
                ClassifyResult expect = classifyRun(trace, seq);

                const ShardedClassifyResult got = runShardedClassify(
                    trace.records().data(), trace.records().size(),
                    cfg);

                EXPECT_EQ(got.references, expect.references);
                EXPECT_EQ(got.misses, expect.misses);
                // The MCT-side verdict tallies must agree too: the
                // scorer's "called conflict" column is exactly our
                // conflictMisses counter.
                EXPECT_EQ(got.mem.conflictMisses,
                          expect.scorer.conflictAsConflict() +
                              expect.scorer.capacityAsConflict());
                EXPECT_EQ(got.mem.capacityMisses,
                          got.misses - got.mem.conflictMisses);
            }
        }
    }
}

TEST(ShardedClassify, ZeroShardsMeansOne)
{
    auto wl = makeWorkload("swim", 10'000, 1);
    VectorTrace trace = VectorTrace::capture(*wl);
    const ShardedClassifyResult res = runShardedClassify(
        trace.records().data(), trace.records().size(),
        smallConfig(0));
    EXPECT_EQ(res.shards, 1u);
    EXPECT_EQ(res.references, Count{10'000});
}

TEST(ShardedClassify, OneByteLinesKeepEveryAddressBit)
{
    // lineBytes = 1 leaves no offset bit free, so an encoding that
    // folded the store flag into the low bit of a shifted line number
    // would drop address bit 63.  Addresses here differ only in bit 63
    // and a few low bits, so losing it aliases distinct lines.
    VectorTrace trace;
    Count loads = 0, stores = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr addr = ((x >> 20) & 1 ? Addr{1} << 63 : Addr{0}) |
                          ((x >> 40) & 0x3f);
        if ((x >> 60) % 4 != 0) {
            trace.pushStore(addr);
            ++stores;
        } else {
            trace.pushLoad(addr);
            ++loads;
        }
        if (i % 5 == 0)
            trace.pushNonMem();
    }

    ShardedClassifyConfig cfg = smallConfig(1);
    cfg.cacheBytes = 32;
    cfg.assoc = 2;
    cfg.lineBytes = 1;
    const ClassifyConfig seq = cfg;
    const ClassifyResult expect = classifyRun(trace, seq);
    ASSERT_GT(expect.misses, Count{0});

    for (unsigned shards : {1u, 3u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        cfg.shards = shards;
        const ShardedClassifyResult got = runShardedClassify(
            trace.records().data(), trace.records().size(), cfg);
        EXPECT_EQ(got.references, expect.references);
        EXPECT_EQ(got.misses, expect.misses);
        EXPECT_EQ(got.mem.conflictMisses,
                  expect.scorer.conflictAsConflict() +
                      expect.scorer.capacityAsConflict());
        EXPECT_EQ(got.mem.loads, loads);
        EXPECT_EQ(got.mem.stores, stores);
        EXPECT_EQ(got.records, Count{trace.size()});
    }
}

TEST(ShardedClassify, AllNonMemTraceEmitsNoWindows)
{
    VectorTrace trace;
    trace.pushNonMem(5'000);
    for (unsigned shards : {1u, 3u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const ShardedClassifyResult res = runShardedClassify(
            trace.records().data(), trace.records().size(),
            smallConfig(shards, 100));
        EXPECT_EQ(res.records, Count{5'000});
        EXPECT_EQ(res.references, Count{0});
        EXPECT_TRUE(res.intervals.empty());
    }
}

TEST(ShardedClassify, ExactMultipleOfIntervalLeavesNoPartialWindow)
{
    auto wl = makeWorkload("li", 30'000, 5);
    VectorTrace trace = VectorTrace::capture(*wl);
    // Non-memory records after the last boundary must not open a
    // trailing window: windows count references, not records.
    trace.pushNonMem(17);

    for (unsigned shards : {1u, 3u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const ShardedClassifyResult res = runShardedClassify(
            trace.records().data(), trace.records().size(),
            smallConfig(shards, 10'000));
        EXPECT_EQ(res.references, Count{30'000});
        ASSERT_EQ(res.intervals.size(), 3u);
        EXPECT_EQ(res.intervals[2].firstRef, Count{20'001});
        EXPECT_EQ(res.intervals[2].lastRef, Count{30'000});
        EXPECT_EQ(res.intervals[2].delta.accesses, Count{10'000});
    }
}

// ---- the timing lane agrees with the classify lane -----------------

/**
 * The timing model's baseline machine and the classify kernel run the
 * same cache + MCT protocol, so on every workload they must produce
 * the same L1 and MCT counters and per-set histograms.  Full and
 * partial tags, direct-mapped and 2-way.
 */
TEST(LaneAgreement, TimingBaselineEqualsClassify)
{
    struct Shape
    {
        unsigned tagBits;
        unsigned assoc;
    };
    for (const Shape shape : {Shape{0, 1}, Shape{8, 1}, Shape{10, 2}}) {
        SystemConfig timing = baselineConfig();
        timing.mem.mctTagBits = shape.tagBits;
        timing.mem.l1Assoc = shape.assoc;
        ShardedClassifyConfig classify;
        classify.cacheBytes = timing.mem.l1Bytes;
        classify.assoc = shape.assoc;
        classify.lineBytes = timing.mem.lineBytes;
        classify.mctTagBits = shape.tagBits;
        classify.shards = 1;
        for (const std::string &name : workloadNames()) {
            SCOPED_TRACE(::testing::Message()
                         << name << " tag_bits=" << shape.tagBits
                         << " assoc=" << shape.assoc);
            auto wl = makeWorkload(name, 20'000, 42);
            const RunOutput t = runTiming(*wl, timing);
            const ShardedClassifyResult c =
                runShardedClassify(*wl, classify);
            EXPECT_EQ(t.mem.accesses, c.mem.accesses);
            EXPECT_EQ(t.mem.loads, c.mem.loads);
            EXPECT_EQ(t.mem.stores, c.mem.stores);
            EXPECT_EQ(t.mem.l1Hits, c.mem.l1Hits);
            EXPECT_EQ(t.mem.l1Misses, c.mem.l1Misses);
            EXPECT_EQ(t.mem.conflictMisses, c.mem.conflictMisses);
            EXPECT_EQ(t.mem.capacityMisses, c.mem.capacityMisses);
            ASSERT_FALSE(t.heat.empty());
            EXPECT_EQ(t.heat.sets, c.heat.sets);
            EXPECT_EQ(t.heat.l1Misses, c.heat.l1Misses);
            EXPECT_EQ(t.heat.l1Evictions, c.heat.l1Evictions);
            EXPECT_EQ(t.heat.mctLookups, c.heat.mctLookups);
            EXPECT_EQ(t.heat.mctConflicts, c.heat.mctConflicts);
        }
    }
}

// ---- trace file reader vs the written records ---------------------

class MappedTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "ccm_mmap_" + info->name() +
               ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Write @p name's records to path; they land in `written`. */
    void
    writeWorkload(const std::string &name, std::size_t refs,
                  TraceEncoding enc = TraceEncoding::Packed)
    {
        auto wl = makeWorkload(name, refs, 42);
        ASSERT_NE(wl, nullptr) << name;
        VectorTrace captured = VectorTrace::capture(*wl);
        written = captured.records();
        auto writer = TraceFileWriter::create(path, enc);
        ASSERT_TRUE(writer.ok()) << writer.status().toString();
        ASSERT_TRUE(writer.value()->writeAll(captured).ok());
        ASSERT_TRUE(writer.value()->close().isOk());
    }

    /** The file's bytes. */
    std::vector<std::uint8_t>
    readFile() const
    {
        std::vector<std::uint8_t> all;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            return all;
        std::uint8_t chunk[65536];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
            all.insert(all.end(), chunk, chunk + n);
        std::fclose(f);
        return all;
    }

    /** Replace the file with @p bytes. */
    void
    writeFile(const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    void
    truncateTo(std::size_t bytes)
    {
        std::vector<std::uint8_t> all = readFile();
        ASSERT_LE(bytes, all.size());
        all.resize(bytes);
        writeFile(all);
    }

    /** Overwrite packed record @p record with 24 0xff bytes. */
    void
    stampGarbage(std::size_t record)
    {
        std::vector<std::uint8_t> all = readFile();
        ASSERT_LE(16 + 24 * (record + 1), all.size());
        stamp(all, record);
        writeFile(all);
    }

    static void
    stamp(std::vector<std::uint8_t> &file, std::size_t record)
    {
        std::fill_n(file.begin() +
                        static_cast<std::ptrdiff_t>(16 + 24 * record),
                    24, std::uint8_t{0xff});
    }

    std::string path;
    /** The records the last writeWorkload() gave the writer. */
    std::vector<MemRecord> written;
};

void
expectSameRecords(const std::vector<MemRecord> &ref, TraceSource &got)
{
    MemRecord r;
    std::size_t i = 0;
    while (got.next(r)) {
        ASSERT_LT(i, ref.size());
        EXPECT_EQ(ref[i].pc, r.pc) << "record " << i;
        EXPECT_EQ(ref[i].addr, r.addr) << "record " << i;
        EXPECT_EQ(ref[i].type, r.type) << "record " << i;
        EXPECT_EQ(ref[i].dependsOnPrevLoad, r.dependsOnPrevLoad)
            << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, ref.size());
}

TEST_F(MappedTraceTest, MatchesFileReaderOnEveryWorkload)
{
    for (const auto &name : workloadNames()) {
        SCOPED_TRACE(name);
        writeWorkload(name, 5'000);

        auto mapped = TraceFileReader::open(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
        EXPECT_EQ(mapped.value()->size(), written.size());
        expectSameRecords(written, *mapped.value());
    }
}

TEST_F(MappedTraceTest, MatchesFileReaderOnDeltaEncoding)
{
    writeWorkload("vortex", 20'000, TraceEncoding::Delta);

    auto mapped = TraceFileReader::open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
    EXPECT_EQ(mapped.value()->readStats().encoding,
              TraceEncoding::Delta);
    expectSameRecords(written, *mapped.value());

    // reset() must rewind the delta predictor too, not just the
    // cursor: a second pass sees the same bytes.
    mapped.value()->reset();
    expectSameRecords(written, *mapped.value());
}

TEST_F(MappedTraceTest, BatchesAgreeWithSingleSteps)
{
    writeWorkload("li", 8'000);
    auto mapped = TraceFileReader::open(path);
    ASSERT_TRUE(mapped.ok());

    std::vector<MemRecord> batched;
    MemRecord buf[97]; // deliberately not a divisor of the count
    std::size_t n = 0;
    while ((n = mapped.value()->nextBatch(buf, 97)) > 0)
        batched.insert(batched.end(), buf, buf + n);

    ASSERT_EQ(batched.size(), written.size());
    for (std::size_t i = 0; i < written.size(); ++i) {
        EXPECT_EQ(written[i].pc, batched[i].pc);
        EXPECT_EQ(written[i].addr, batched[i].addr);
        EXPECT_EQ(written[i].type, batched[i].type);
    }
}

TEST_F(MappedTraceTest, TruncatedFileIsRejectedAtOpen)
{
    writeWorkload("compress", 1'000);
    // Chop mid-record: 16-byte header + some records + 7 stray bytes.
    truncateTo(16 + 24 * 10 + 7);
    auto mapped = TraceFileReader::open(path);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().toString(),
              "corrupt-trace: trailing partial record in trace " + path);
}

TEST_F(MappedTraceTest, CorruptBodyIsRejectedAtOpen)
{
    writeWorkload("compress", 1'000);
    // Stamp garbage over a record in the middle of the body.
    stampGarbage(50);

    auto mapped = TraceFileReader::open(path);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().toString(),
              "corrupt-trace: mid-file garbage in trace " + path +
                  " at byte " + std::to_string(16 + 24 * 50));
}

TEST_F(MappedTraceTest, EmptyAndMissingFilesAreRejected)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_FALSE(TraceFileReader::open(path).ok());
    EXPECT_FALSE(TraceFileReader::open(path + ".does-not-exist").ok());
}

TEST_F(MappedTraceTest, TolerantOpenDeliversTheStrictStream)
{
    writeWorkload("swim", 1'000);

    auto strict = TraceFileReader::open(path);
    ASSERT_TRUE(strict.ok()) << strict.status().toString();

    // Tolerance changes nothing on a clean file: same stream.
    TraceReadOptions tolerant;
    tolerant.corruptionBudget = 4;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    auto relaxed = TraceFileReader::open(path, tolerant);
    ASSERT_TRUE(relaxed.ok()) << relaxed.status().toString();

    expectSameRecords(written, *strict.value());
    expectSameRecords(written, *relaxed.value());
}

TEST_F(MappedTraceTest, OpenMappedOrFileHandlesDeltaTraces)
{
    // CCMTRACD decoded in place, strict or tolerant, must reproduce
    // the written stream — including the mem/non-mem mix and the
    // dependent-load bits the delta control byte packs.
    writeWorkload("vortex", 10'000, TraceEncoding::Delta);

    auto strict = TraceFileReader::open(path);
    ASSERT_TRUE(strict.ok()) << strict.status().toString();
    expectSameRecords(written, *strict.value());

    TraceReadOptions tolerant;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    auto relaxed = TraceFileReader::open(path, tolerant);
    ASSERT_TRUE(relaxed.ok()) << relaxed.status().toString();
    expectSameRecords(written, *relaxed.value());
}

TEST_F(MappedTraceTest, TraceSourceOverloadMatchesSpanOverload)
{
    const ShardedClassifyConfig cfg = smallConfig(3, 7'000);
    for (TraceEncoding enc : {TraceEncoding::Packed,
                              TraceEncoding::Delta}) {
        SCOPED_TRACE(enc == TraceEncoding::Packed ? "packed" : "delta");
        writeWorkload("gcc", 25'000, enc);
        const ShardedClassifyResult ref =
            runShardedClassify(written.data(), written.size(), cfg);
        EXPECT_EQ(ref.records, Count{written.size()});

        auto mapped = TraceFileReader::open(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
        const ShardedClassifyResult viaMapped =
            runShardedClassify(*mapped.value(), cfg);
        expectSameResult(ref, viaMapped);
        EXPECT_EQ(viaMapped.records, ref.records);
    }
}

TEST_F(MappedTraceTest, TraceSourceOverloadResetsTheReader)
{
    writeWorkload("tomcatv", 12'000);
    auto mapped = TraceFileReader::open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
    const ShardedClassifyConfig cfg = smallConfig(3, 5'000);

    const ShardedClassifyResult first =
        runShardedClassify(*mapped.value(), cfg);
    EXPECT_EQ(first.references, Count{12'000});
    // The first call left the reader exhausted; the second must start
    // over rather than classify an empty tail.
    const ShardedClassifyResult second =
        runShardedClassify(*mapped.value(), cfg);
    expectSameResult(first, second);
    EXPECT_EQ(second.records, first.records);
}

/**
 * The documented packed resync rule, one byte at a time: a plausible
 * 24-byte window is a record, anything else is skipped byte by byte,
 * and each maximal skipped stretch is one resync event.  Bytes short
 * of a whole record at the end are the (tolerated) tail.
 */
TraceReadStats
naivePackedScan(const std::vector<std::uint8_t> &file)
{
    TraceReadStats st;
    std::size_t off = 16;
    bool skipping = false;
    while (off + 24 <= file.size()) {
        if (wire::plausibleRecord(&file[off])) {
            ++st.recordsRead;
            off += 24;
            skipping = false;
            continue;
        }
        if (!skipping) {
            ++st.resyncEvents;
            if (st.firstDefect == TraceDefect::None)
                st.firstDefect = TraceDefect::MidFileGarbage;
        }
        skipping = true;
        ++st.bytesSkipped;
        ++off;
    }
    if (off < file.size()) {
        st.truncatedTail = true;
        st.bytesSkipped += file.size() - off;
        if (st.firstDefect == TraceDefect::None)
            st.firstDefect = TraceDefect::PartialTail;
    }
    return st;
}

void
expectSameReadStats(const TraceReadStats &want, const TraceReadStats &got)
{
    EXPECT_EQ(want.recordsRead, got.recordsRead);
    EXPECT_EQ(want.resyncEvents, got.resyncEvents);
    EXPECT_EQ(want.bytesSkipped, got.bytesSkipped);
    EXPECT_EQ(want.truncatedTail, got.truncatedTail);
    EXPECT_EQ(want.encoding, got.encoding);
    EXPECT_EQ(want.firstDefect, got.firstDefect);
}

TEST_F(MappedTraceTest, GarbageInAnyCheckRangeGivesTheSerialResult)
{
    // Big enough for the open-time check to split into several ranges
    // on a multi-core host; garbage in the first range, on both sides
    // of a range boundary and in the last range must each fall back to
    // the serial scan and report exactly what it reports.
    writeWorkload("gcc", 40'000);
    const std::size_t n = written.size();
    const std::vector<std::size_t> bounds = packedCheckBounds(n);
    ASSERT_EQ(bounds.front(), 0u);
    ASSERT_EQ(bounds.back(), n);
    if (resolveJobCount(0) > 1) {
        EXPECT_GT(bounds.size(), 2u);
    }
    const std::size_t edge = bounds.size() > 2 ? bounds[1] : n / 2;
    const std::vector<std::uint8_t> pristine = readFile();

    for (const std::size_t at : {std::size_t{0}, edge - 1, edge, n - 1}) {
        SCOPED_TRACE("garbage at record " + std::to_string(at));
        writeFile(pristine);
        stampGarbage(at);

        TraceReadStats strictStats;
        auto strict = TraceFileReader::open(path, {}, &strictStats);
        ASSERT_FALSE(strict.ok());
        EXPECT_EQ(strict.status().toString(),
                  "corrupt-trace: mid-file garbage in trace " + path +
                      " at byte " + std::to_string(16 + 24 * at));
        TraceReadStats strictWant;
        strictWant.recordsRead = at;
        strictWant.firstDefect = TraceDefect::MidFileGarbage;
        expectSameReadStats(strictWant, strictStats);

        // Resync may land inside a later record (a non-memory record's
        // zero address reads as a plausible type, flags and padding),
        // so the budget is unlimited and the naive scan says how many
        // resyncs the serial rule takes.
        TraceReadOptions tolerant;
        tolerant.corruptionBudget = ~std::size_t{0};
        tolerant.tolerateTruncatedTail = true;
        tolerant.quiet = true;
        TraceReadStats tolerantStats;
        auto rd = TraceFileReader::open(path, tolerant, &tolerantStats);
        ASSERT_TRUE(rd.ok()) << rd.status().toString();
        expectSameReadStats(naivePackedScan(readFile()), tolerantStats);
        EXPECT_EQ(rd.value()->size(), tolerantStats.recordsRead);
    }
}

TEST_F(MappedTraceTest, EveryInputPathAgreesAtEveryShardCount)
{
    // The viewed paths (the span overload, packed and delta readers)
    // and the streamed one (VectorTrace) must agree field for field,
    // windows and heat included.  The prime interval
    // puts window boundaries off every chunk boundary.
    writeWorkload("gcc", 70'000);
    const std::vector<MemRecord> recs = written;
    VectorTrace vec("gcc", recs);
    auto packed = TraceFileReader::open(path);
    ASSERT_TRUE(packed.ok()) << packed.status().toString();
    ASSERT_EQ(packed.value()->packedRuns().size(), 1u);

    const std::string deltaPath = path + ".delta";
    {
        auto w = TraceFileWriter::create(deltaPath, TraceEncoding::Delta);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        ASSERT_TRUE(w.value()->writeAll(vec).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
    auto delta = TraceFileReader::open(deltaPath);
    ASSERT_TRUE(delta.ok()) << delta.status().toString();
    EXPECT_TRUE(delta.value()->packedRuns().empty());

    const ShardedClassifyResult ref =
        runShardedClassify(recs.data(), recs.size(), smallConfig(1, 997));
    ASSERT_GT(ref.intervals.size(), 50u);
    for (unsigned k : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        const ShardedClassifyConfig cfg = smallConfig(k, 997);
        expectSameResult(
            ref, runShardedClassify(recs.data(), recs.size(), cfg));
        expectSameResult(ref, runShardedClassify(*packed.value(), cfg));
        expectSameResult(ref, runShardedClassify(vec, cfg));
        expectSameResult(ref, runShardedClassify(*delta.value(), cfg));
    }
    delta = Status::ioError("closed");
    std::remove(deltaPath.c_str());
}

TEST_F(MappedTraceTest, TolerantReadWithSeveralRunsAgreesAcrossShards)
{
    // Two garbage runs and a 7-byte partial tail: a three-run defect
    // map, whose runs the chunks must cross in stream order.
    writeWorkload("gcc", 40'000);
    const std::size_t n = written.size();
    std::vector<std::uint8_t> file = readFile();
    // Sites where resync lands on the very next record: then the map
    // is exactly one run per stretch between the stamps.
    auto stampCleanSite = [&](std::size_t from, Count stamps) {
        for (std::size_t at = from; at + 1 < n; ++at) {
            std::vector<std::uint8_t> probe = file;
            stamp(probe, at);
            const TraceReadStats st = naivePackedScan(probe);
            if (st.resyncEvents == stamps &&
                st.bytesSkipped == 24 * stamps) {
                file = std::move(probe);
                return;
            }
        }
        FAIL() << "no clean garbage site after record " << from;
    };
    stampCleanSite(n / 3, 1);
    stampCleanSite(2 * n / 3, 2);
    file.resize(16 + 24 * (n - 1) + 7);
    writeFile(file);

    TraceReadOptions opts;
    opts.corruptionBudget = 2;
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    TraceReadStats stats;
    auto rd = TraceFileReader::open(path, opts, &stats);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(stats.resyncEvents, 2u);
    EXPECT_TRUE(stats.truncatedTail);
    const std::vector<wire::RecordSpan> &runs = rd.value()->packedRuns();
    ASSERT_EQ(runs.size(), 3u);
    std::size_t inRuns = 0;
    for (const wire::RecordSpan &r : runs)
        inRuns += r.records;
    EXPECT_EQ(inRuns, rd.value()->size());

    // The reader's own record stream, as a span, is the reference.
    const VectorTrace streamed = VectorTrace::capture(*rd.value());
    const std::vector<MemRecord> &recs = streamed.records();
    const ShardedClassifyResult ref =
        runShardedClassify(recs.data(), recs.size(), smallConfig(1, 997));
    for (unsigned k : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        expectSameResult(
            ref, runShardedClassify(*rd.value(), smallConfig(k, 997)));
    }
}

// ---- delta codec --------------------------------------------------

TEST(DeltaCodec, RoundTripsNegativeAndLargeJumps)
{
    std::vector<MemRecord> recs;
    MemRecord r;
    r.type = RecordType::Load;
    r.pc = 0xffff'ffff'0000'0000ull;
    r.addr = 0x10'0000;
    recs.push_back(r);
    r.pc = 4; // a huge backwards pc delta
    r.addr = 0x0f'ffc0;
    r.type = RecordType::Store;
    recs.push_back(r);
    r.type = RecordType::NonMem;
    r.pc = 8;
    r.addr = 0;
    recs.push_back(r);
    r.type = RecordType::Load;
    r.pc = 12;
    r.addr = 0x0f'ffc0; // zero addr delta vs previous mem record
    r.dependsOnPrevLoad = true;
    recs.push_back(r);

    delta::Codec enc, dec;
    std::uint8_t buf[delta::maxRecordBytes * 8];
    std::size_t len = 0;
    for (const auto &in : recs)
        len += delta::encodeRecord(enc, in, buf + len);

    const std::uint8_t *p = buf;
    for (const auto &in : recs) {
        MemRecord out;
        std::size_t used = 0;
        ASSERT_EQ(delta::decodeRecord(dec, p, buf + len, out, used),
                  delta::DecodeStatus::Ok);
        p += used;
        EXPECT_EQ(out.pc, in.pc);
        EXPECT_EQ(out.type, in.type);
        EXPECT_EQ(out.dependsOnPrevLoad, in.dependsOnPrevLoad);
        if (in.isMem()) {
            EXPECT_EQ(out.addr, in.addr);
        }
    }
    EXPECT_EQ(p, buf + len);
}

TEST(DeltaCodec, ReservedControlBitsAreBadControlByte)
{
    delta::Codec dec;
    const std::uint8_t bytes[] = {0xf8, 0x00, 0x00};
    MemRecord out;
    std::size_t used = 7; // must be left untouched on failure
    EXPECT_EQ(delta::decodeRecord(dec, bytes, bytes + sizeof bytes,
                                  out, used),
              delta::DecodeStatus::BadControlByte);
    EXPECT_EQ(used, 7u);
}

TEST(DeltaCodec, OverlongVarintIsBadVarint)
{
    delta::Codec dec;
    // Control byte 0 (NonMem) + ten 0x80 continuation bytes: byte 10
    // exceeds the 64-bit range.
    std::uint8_t bytes[12];
    bytes[0] = 0x00;
    for (int i = 1; i <= 10; ++i)
        bytes[i] = 0x80;
    bytes[11] = 0x02;
    MemRecord out;
    std::size_t used = 0;
    EXPECT_EQ(delta::decodeRecord(dec, bytes, bytes + sizeof bytes,
                                  out, used),
              delta::DecodeStatus::BadVarint);
}

TEST(DeltaCodec, FileReaderFlagsDeltaDefects)
{
    const std::string path = ::testing::TempDir() +
                             "ccm_delta_defect.bin";
    auto wl = makeWorkload("compress", 500, 42);
    {
        auto writer = TraceFileWriter::create(path, TraceEncoding::Delta);
        ASSERT_TRUE(writer.ok()) << writer.status().toString();
        ASSERT_TRUE(writer.value()->writeAll(*wl).ok());
        ASSERT_TRUE(writer.value()->close().isOk());
    }
    // Reserved bits in the very first control byte.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
    std::fputc(0xf8, f);
    std::fclose(f);

    TraceReadStats stats;
    EXPECT_EQ(probeTraceFile(path, &stats),
              TraceDefect::BadControlByte);

    // Delta streams cannot resync: even an unlimited corruption
    // budget must not turn this into a tolerated defect.
    TraceReadOptions opts;
    opts.corruptionBudget = ~std::size_t{0};
    opts.quiet = true;
    TraceReadStats stats2;
    auto rd = TraceFileReader::open(path, opts, &stats2);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().message(),
              "bad control byte in delta trace " + path +
                  " at byte 16 (delta streams cannot be resynced)");
    EXPECT_EQ(stats2.firstDefect, TraceDefect::BadControlByte);
    std::remove(path.c_str());
}

} // namespace
} // namespace ccm
