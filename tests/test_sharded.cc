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

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "hierarchy/memstats.hh"
#include "mct/classify_run.hh"
#include "sim/sharded.hh"
#include "trace/delta.hh"
#include "trace/file_trace.hh"
#include "trace/mmap_trace.hh"
#include "trace/vector_trace.hh"
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

                ClassifyConfig seq;
                static_cast<ClassifyGeometry &>(seq) = cfg;
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
    ClassifyConfig seq;
    static_cast<ClassifyGeometry &>(seq) = cfg;
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

    void
    truncateTo(std::size_t bytes)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::vector<unsigned char> all;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            all.push_back(static_cast<unsigned char>(c));
        std::fclose(f);
        ASSERT_LE(bytes, all.size());
        f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (bytes > 0) {
            ASSERT_EQ(std::fwrite(all.data(), 1, bytes, f), bytes);
        }
        std::fclose(f);
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
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16 + 24 * 50, SEEK_SET), 0);
    const unsigned char junk[24] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    std::fclose(f);

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

    auto strict = openTraceMappedOrFile(path, {});
    ASSERT_TRUE(strict.ok()) << strict.status().toString();

    // Tolerance changes nothing on a clean file: same stream.
    TraceReadOptions tolerant;
    tolerant.corruptionBudget = 4;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    auto relaxed = openTraceMappedOrFile(path, tolerant);
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

    auto strict = openTraceMappedOrFile(path, {});
    ASSERT_TRUE(strict.ok()) << strict.status().toString();
    expectSameRecords(written, *strict.value());

    TraceReadOptions tolerant;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    auto relaxed = openTraceMappedOrFile(path, tolerant);
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
