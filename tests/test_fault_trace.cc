/**
 * @file
 * The corrupted-trace matrix: every on-disk defect class against the
 * tolerant reader, the probe, and the fault-injection decorator.
 *
 * File damage (bad magic, partial tails, mid-file garbage) is staged
 * by writing raw bytes; record-level dirt (bit flips, drops,
 * duplicates, truncation) comes from FaultInjectingSource.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hh"
#include "ref/delta_ref.hh"
#include "trace/delta.hh"
#include "trace/fault_trace.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "trace/wire.hh"

namespace ccm
{
namespace
{

class CorruptTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "ccm_fault_" + info->name() +
               ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    void
    writeBytes(const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    static std::vector<std::uint8_t>
    header(std::uint32_t version = 1)
    {
        std::vector<std::uint8_t> h = {'C', 'C', 'M', 'T',
                                       'R', 'A', 'C', 'E'};
        for (int i = 0; i < 4; ++i)
            h.push_back((version >> (8 * i)) & 0xff);
        for (int i = 0; i < 4; ++i)
            h.push_back(0);
        return h;
    }

    /**
     * One packed record with every pc/addr byte nonzero, so garbage
     * resync can never find a false record boundary inside it.
     */
    static std::vector<std::uint8_t>
    record(std::uint8_t fill, std::uint8_t type = 1)
    {
        std::vector<std::uint8_t> r(24, 0);
        for (int i = 0; i < 16; ++i)
            r[i] = fill;
        r[16] = type;
        r[17] = 0;
        return r;
    }

    static void
    append(std::vector<std::uint8_t> &to,
           const std::vector<std::uint8_t> &bytes)
    {
        to.insert(to.end(), bytes.begin(), bytes.end());
    }

    std::string path;
};

TEST_F(CorruptTraceTest, ZeroLengthFile)
{
    writeBytes({});
    EXPECT_EQ(probeTraceFile(path), TraceDefect::ZeroLength);

    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_NE(rd.status().message().find("empty trace file"),
              std::string::npos);
}

TEST_F(CorruptTraceTest, TruncatedHeader)
{
    writeBytes({'C', 'C', 'M', 'T', 'R', 'A', 'C', 'E'});
    EXPECT_EQ(probeTraceFile(path), TraceDefect::TruncatedHeader);

    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_NE(rd.status().message().find("truncated trace header"),
              std::string::npos);
}

TEST_F(CorruptTraceTest, BadMagic)
{
    std::vector<std::uint8_t> bytes(16, 'X');
    writeBytes(bytes);
    EXPECT_EQ(probeTraceFile(path), TraceDefect::BadMagic);

    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
}

TEST_F(CorruptTraceTest, UnsupportedVersion)
{
    writeBytes(header(99));
    EXPECT_EQ(probeTraceFile(path), TraceDefect::BadVersion);

    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::Unsupported);
}

TEST_F(CorruptTraceTest, MissingFileIsIoError)
{
    auto rd = TraceFileReader::open(path + ".does-not-exist");
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::IoError);
    EXPECT_EQ(probeTraceFile(path + ".does-not-exist"),
              TraceDefect::IoError);
}

TEST_F(CorruptTraceTest, DirectoryIsIoErrorNotZeroLength)
{
    // A directory opens on Linux but is not a regular file, so it
    // takes the read() path, whose first read fails with EISDIR.
    // That is an I/O problem, not an empty trace.
    auto rd = TraceFileReader::open(::testing::TempDir());
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::IoError);
    EXPECT_EQ(probeTraceFile(::testing::TempDir()),
              TraceDefect::IoError);
}

TEST_F(CorruptTraceTest, CleanFileProbesClean)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, record(0x22, 2));
    writeBytes(bytes);

    TraceReadStats stats;
    EXPECT_EQ(probeTraceFile(path, &stats), TraceDefect::None);
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.recordsRead, 2u);
    EXPECT_EQ(stats.resyncEvents, 0u);
    EXPECT_EQ(stats.bytesSkipped, 0u);
    EXPECT_FALSE(stats.truncatedTail);
}

TEST_F(CorruptTraceTest, PartialTailStrictFails)
{
    auto bytes = header();
    append(bytes, record(0x11));
    bytes.resize(bytes.size() - 5); // chop the record
    writeBytes(bytes);

    EXPECT_EQ(probeTraceFile(path), TraceDefect::PartialTail);

    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_NE(rd.status().message().find("partial record"),
              std::string::npos);
}

TEST_F(CorruptTraceTest, PartialTailToleratedIsEndOfTrace)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, record(0x22));
    bytes.resize(bytes.size() - 7);
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->size(), 1u);

    const TraceReadStats &stats = rd.value()->readStats();
    EXPECT_TRUE(stats.truncatedTail);
    EXPECT_EQ(stats.firstDefect, TraceDefect::PartialTail);
    EXPECT_EQ(stats.bytesSkipped, 17u);

    MemRecord r;
    ASSERT_TRUE(rd.value()->next(r));
    EXPECT_EQ(r.addr, 0x1111111111111111u);
}

TEST_F(CorruptTraceTest, MidFileGarbageStrictFails)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    append(bytes, record(0x22));
    writeBytes(bytes);

    EXPECT_EQ(probeTraceFile(path), TraceDefect::MidFileGarbage);

    auto rd = TraceFileReader::open(path); // budget defaults to 0
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_NE(rd.status().message().find("garbage"),
              std::string::npos);
}

TEST_F(CorruptTraceTest, MidFileGarbageResyncsWithinBudget)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    append(bytes, record(0x22, 2));
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.corruptionBudget = 1;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->size(), 2u);

    const TraceReadStats &stats = rd.value()->readStats();
    EXPECT_EQ(stats.resyncEvents, 1u);
    EXPECT_EQ(stats.bytesSkipped, 24u);
    EXPECT_EQ(stats.firstDefect, TraceDefect::MidFileGarbage);

    // Resync landed exactly on the next true record.
    MemRecord r;
    ASSERT_TRUE(rd.value()->next(r));
    EXPECT_EQ(r.addr, 0x1111111111111111u);
    ASSERT_TRUE(rd.value()->next(r));
    EXPECT_EQ(r.addr, 0x2222222222222222u);
    EXPECT_TRUE(r.isStore());
}

TEST_F(CorruptTraceTest, CorruptionBudgetIsEnforced)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    append(bytes, record(0x22));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    append(bytes, record(0x33));
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.corruptionBudget = 1;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_FALSE(rd.ok());
    EXPECT_NE(rd.status().message().find("budget exhausted"),
              std::string::npos);

    opts.corruptionBudget = 2;
    auto rd2 = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd2.ok()) << rd2.status().toString();
    EXPECT_EQ(rd2.value()->size(), 3u);
    EXPECT_EQ(rd2.value()->readStats().resyncEvents, 2u);
}

TEST_F(CorruptTraceTest, RepairProducesCleanTrace)
{
    auto bytes = header();
    append(bytes, record(0x11));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    append(bytes, record(0x22));
    bytes.resize(bytes.size() - 3); // and a truncated tail
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.corruptionBudget = ~std::size_t{0};
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->size(), 1u);

    std::string repaired = path + ".repaired";
    {
        auto w = TraceFileWriter::create(repaired);
        ASSERT_TRUE(w.ok());
        auto n = w.value()->writeAll(*rd.value());
        ASSERT_TRUE(n.ok()) << n.status().toString();
        EXPECT_EQ(n.value(), 1u);
        ASSERT_TRUE(w.value()->close().isOk());
    }
    EXPECT_EQ(probeTraceFile(repaired), TraceDefect::None);
    std::remove(repaired.c_str());
}

/**
 * @p n records with every pc and addr byte nonzero and the addr's top
 * byte above 2, so no 24-byte window that straddles a garbage run and
 * a record can look plausible: resync lands on true boundaries only.
 */
std::vector<MemRecord>
distinctRecords(std::size_t n)
{
    std::vector<MemRecord> recs(n);
    for (std::size_t i = 0; i < n; ++i) {
        recs[i].pc = 0x0101010101010101ull * (1 + i % 255);
        recs[i].addr = 0x0101010101010101ull * (3 + i / 255);
        recs[i].type = i % 3 == 0 ? RecordType::Store : RecordType::Load;
        recs[i].dependsOnPrevLoad = i % 5 == 0;
    }
    return recs;
}

void
expectSameRecords(const std::vector<MemRecord> &want,
                  const std::vector<MemRecord> &got)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].pc, want[i].pc) << "record " << i;
        ASSERT_EQ(got[i].addr, want[i].addr) << "record " << i;
        ASSERT_EQ(got[i].type, want[i].type) << "record " << i;
        ASSERT_EQ(got[i].dependsOnPrevLoad, want[i].dependsOnPrevLoad)
            << "record " << i;
    }
}

/** Everything @p src delivers through nextBatch(@p batch). */
std::vector<MemRecord>
drainBatches(TraceSource &src, std::size_t batch)
{
    std::vector<MemRecord> out;
    std::vector<MemRecord> buf(batch);
    std::size_t got;
    while ((got = src.nextBatch(buf.data(), batch)) > 0)
        out.insert(out.end(), buf.begin(), buf.begin() + got);
    return out;
}

TEST_F(CorruptTraceTest, TolerantPackedReadWalksTheDefectMap)
{
    // Two garbage runs (one record, then two) and a 7-byte partial
    // tail: the defect map has three runs, and batches of 97 or 256
    // straddle the run boundaries at records 300 and 610.
    const std::vector<MemRecord> recs = distinctRecords(1'000);
    auto bytes = header();
    std::vector<MemRecord> want;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        std::uint8_t packed[wire::recordBytes];
        wire::packRecord(recs[i], packed);
        const bool stamped = i == 300 || i == 611 || i == 612;
        if (stamped)
            std::fill(packed, packed + sizeof packed, 0xFF);
        else
            want.push_back(recs[i]);
        bytes.insert(bytes.end(), packed, packed + sizeof packed);
    }
    const std::vector<std::uint8_t> tail(bytes.begin() + 16,
                                         bytes.begin() + 23);
    append(bytes, tail);
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.corruptionBudget = 2;
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    for (std::size_t batch : {std::size_t{1}, std::size_t{97},
                              std::size_t{256}}) {
        SCOPED_TRACE(batch);
        auto rd = TraceFileReader::open(path, opts);
        ASSERT_TRUE(rd.ok()) << rd.status().toString();
        EXPECT_EQ(rd.value()->size(), want.size());
        const TraceReadStats &stats = rd.value()->readStats();
        EXPECT_EQ(stats.resyncEvents, 2u);
        EXPECT_EQ(stats.bytesSkipped, 24u + 48u + 7u);
        EXPECT_TRUE(stats.truncatedTail);
        EXPECT_EQ(stats.firstDefect, TraceDefect::MidFileGarbage);

        expectSameRecords(want, drainBatches(*rd.value(), batch));
        rd.value()->reset();
        expectSameRecords(want, drainBatches(*rd.value(), batch));
    }

    // The repaired file (what tracecheck repair writes) is clean and
    // holds exactly the same records.
    const std::string repaired = path + ".repaired";
    {
        auto rd = TraceFileReader::open(path, opts);
        ASSERT_TRUE(rd.ok()) << rd.status().toString();
        auto w = TraceFileWriter::create(repaired);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.value()->writeAll(*rd.value()).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
    auto clean = TraceFileReader::open(repaired);
    ASSERT_TRUE(clean.ok()) << clean.status().toString();
    expectSameRecords(want, drainBatches(*clean.value(), 256));
    std::remove(repaired.c_str());

    // One run short of the damage is still an error.
    opts.corruptionBudget = 1;
    TraceReadStats stats;
    auto strict = TraceFileReader::open(path, opts, &stats);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().message(),
              "mid-file garbage in trace " + path + " at byte " +
                  std::to_string(16 + 611 * 24) +
                  " (corruption budget exhausted)");
    EXPECT_EQ(stats.firstDefect, TraceDefect::MidFileGarbage);
}

TEST_F(CorruptTraceTest, ViewCursorResumesAtEveryPositionOfEachSource)
{
    // A packed file with a three-run defect map, the same records
    // delta-encoded, and a span: a copy of a view cursor taken before
    // any batch, read from later, continues with exactly the records
    // that followed it, and the chunks tile the records in order.
    const std::vector<MemRecord> recs = distinctRecords(1'000);
    auto bytes = header();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i == 300 || i == 610)
            append(bytes, std::vector<std::uint8_t>(24 * (i / 300),
                                                    0xFF));
        std::uint8_t packed[wire::recordBytes];
        wire::packRecord(recs[i], packed);
        bytes.insert(bytes.end(), packed, packed + sizeof packed);
    }
    writeBytes(bytes);
    TraceReadOptions opts;
    opts.corruptionBudget = 2;
    opts.quiet = true;
    auto packed = TraceFileReader::open(path, opts);
    ASSERT_TRUE(packed.ok()) << packed.status().toString();
    ASSERT_EQ(packed.value()->packedRuns().size(), 3u);

    const std::string delta_path = path + ".d";
    {
        auto w = TraceFileWriter::create(delta_path, TraceEncoding::Delta);
        ASSERT_TRUE(w.ok());
        VectorTrace src("recs", recs);
        ASSERT_TRUE(w.value()->writeAll(src).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
    auto delta = TraceFileReader::open(delta_path);
    ASSERT_TRUE(delta.ok()) << delta.status().toString();
    SpanTrace span(recs.data(), recs.size());

    for (TraceSource *src :
         {static_cast<TraceSource *>(packed.value().get()),
          static_cast<TraceSource *>(delta.value().get()),
          static_cast<TraceSource *>(&span)}) {
        SCOPED_TRACE(src->name());
        const TraceView *view = src->view();
        ASSERT_NE(view, nullptr);
        const std::vector<TraceChunk> &chunks = view->chunks();
        ASSERT_FALSE(chunks.empty());
        std::size_t first = 0;
        for (const TraceChunk &c : chunks) {
            TracePosition at = c.start;
            std::vector<MemRecord> got(c.records);
            ASSERT_EQ(view->read(at, got.data(), c.records), c.records);
            expectSameRecords(
                std::vector<MemRecord>(
                    recs.begin() + static_cast<std::ptrdiff_t>(first),
                    recs.begin() +
                        static_cast<std::ptrdiff_t>(first + c.records)),
                got);
            first += c.records;
        }
        EXPECT_EQ(first, recs.size());

        std::vector<std::pair<TracePosition, std::size_t>> marks;
        std::vector<MemRecord> buf(97);
        std::size_t delivered = 0;
        TracePosition cursor = chunks.front().start;
        for (;;) {
            marks.emplace_back(cursor, delivered);
            const std::size_t got = view->read(cursor, buf.data(), 97);
            if (got == 0)
                break;
            delivered += got;
        }
        ASSERT_EQ(delivered, recs.size());
        for (auto it = marks.rbegin(); it != marks.rend(); ++it) {
            TracePosition at = it->first;
            std::vector<MemRecord> rest;
            MemRecord one[64];
            for (std::size_t got;
                 (got = view->read(at, one, 64)) > 0;)
                rest.insert(rest.end(), one, one + got);
            expectSameRecords(
                std::vector<MemRecord>(
                    recs.begin() +
                        static_cast<std::ptrdiff_t>(it->second),
                    recs.end()),
                rest);
        }

        // A cursor past the end reads nothing, and reading a view
        // leaves the source's own stream where it was.
        TracePosition outside = marks.back().first;
        outside.at += 100'000;
        MemRecord next;
        EXPECT_EQ(view->read(outside, &next, 1), 0u);
        src->reset();
        ASSERT_TRUE(src->next(next));
        TracePosition at = chunks.front().start;
        ASSERT_EQ(view->read(at, buf.data(), 97), 97u);
        ASSERT_TRUE(src->next(next));
        EXPECT_EQ(next.pc, recs[1].pc);
    }
    std::remove(delta_path.c_str());
}

TEST_F(CorruptTraceTest, TolerantDeltaReadStopsAtLastWholeRecord)
{
    const std::vector<MemRecord> recs = distinctRecords(500);
    VectorTrace src;
    for (const MemRecord &r : recs)
        src.push(r);
    {
        auto w = TraceFileWriter::create(path, TraceEncoding::Delta);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        ASSERT_TRUE(w.value()->writeAll(src).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
    // The encoded size of the last record, to cut it one byte short.
    delta::Codec codec;
    std::uint8_t buf[delta::maxRecordBytes];
    std::size_t lastBytes = 0;
    for (const MemRecord &r : recs)
        lastBytes = delta::encodeRecord(codec, r, buf);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long len = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), len - 1), 0);

    auto strict = TraceFileReader::open(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().message(),
              "trailing partial record in delta trace " + path);

    TraceReadOptions opts;
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    const TraceReadStats &stats = rd.value()->readStats();
    EXPECT_EQ(stats.encoding, TraceEncoding::Delta);
    EXPECT_TRUE(stats.truncatedTail);
    EXPECT_EQ(stats.firstDefect, TraceDefect::PartialTail);
    EXPECT_EQ(stats.bytesSkipped, lastBytes - 1);

    const std::vector<MemRecord> want(recs.begin(), recs.end() - 1);
    EXPECT_EQ(rd.value()->size(), want.size());
    expectSameRecords(want, drainBatches(*rd.value(), 97));
    rd.value()->reset();
    expectSameRecords(want, drainBatches(*rd.value(), 1));
}

/** @p recs as the bytes of a delta trace file. */
std::vector<std::uint8_t>
deltaFileBytes(const std::vector<MemRecord> &recs)
{
    std::vector<std::uint8_t> bytes(16, 0);
    std::copy(delta::magic, delta::magic + 8, bytes.begin());
    bytes[8] = 1; // version 1, little-endian
    delta::Codec codec;
    std::uint8_t buf[delta::maxRecordBytes];
    for (const MemRecord &r : recs)
        bytes.insert(bytes.end(), buf,
                     buf + delta::encodeRecord(codec, r, buf));
    return bytes;
}

/**
 * Records whose deltas take varints of every length: small strides,
 * jumps backwards and to the far end of the address space.
 */
std::vector<MemRecord>
varintRecords(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<MemRecord> recs(n);
    for (MemRecord &r : recs) {
        const unsigned shift = static_cast<unsigned>(rng() % 64);
        r.pc = rng() >> shift;
        r.type = static_cast<RecordType>(rng() % 3);
        r.addr = r.isMem() ? rng() >> (rng() % 64) : 0;
        r.dependsOnPrevLoad = rng() % 4 == 0;
    }
    return recs;
}

TEST_F(CorruptTraceTest, DeltaDecoderMatchesANaiveReference)
{
    // Seeded bit flips, truncation at every byte, and forged control
    // bytes and overlong varints at record boundaries, each judged by
    // a byte-loop decoder written from the format (tests/ref): a
    // strict open fails with its first defect and byte offset, a
    // tolerant one cuts a partial tail where it does, and whatever
    // opens decodes, chunk by chunk, to its records.
    const std::vector<MemRecord> recs = varintRecords(300, 7);
    const std::vector<std::uint8_t> clean = deltaFileBytes(recs);
    std::vector<std::size_t> boundaries;
    {
        delta::Codec codec;
        std::uint8_t buf[delta::maxRecordBytes];
        std::size_t at = 16;
        for (const MemRecord &r : recs) {
            boundaries.push_back(at);
            at += delta::encodeRecord(codec, r, buf);
        }
    }

    std::size_t checked = 0;
    std::size_t opened = 0;
    auto check = [&](const std::vector<std::uint8_t> &bytes) {
        SCOPED_TRACE("mutant " + std::to_string(checked));
        ++checked;
        const ref::RefDeltaDecode want = ref::refDecodeDelta(bytes);
        writeBytes(bytes);

        TraceReadStats stats;
        auto strict = TraceFileReader::open(path, {}, &stats);
        EXPECT_EQ(stats.firstDefect, want.defect);
        if (want.defect == TraceDefect::None) {
            ASSERT_TRUE(strict.ok()) << strict.status().toString();
        } else {
            ASSERT_FALSE(strict.ok());
            if (want.defect == TraceDefect::BadControlByte ||
                want.defect == TraceDefect::BadVarint) {
                const std::string msg = strict.status().message();
                EXPECT_NE(msg.find(" at byte " +
                                   std::to_string(want.offset) + " "),
                          std::string::npos)
                    << msg;
            }
        }

        TraceReadOptions tolerant;
        tolerant.corruptionBudget = 8;
        tolerant.tolerateTruncatedTail = true;
        tolerant.quiet = true;
        auto rd = TraceFileReader::open(path, tolerant, &stats);
        const bool opens = want.defect == TraceDefect::None ||
                           want.defect == TraceDefect::PartialTail;
        ASSERT_EQ(rd.ok(), opens) << rd.status().toString();
        if (!opens)
            return;
        ++opened;
        EXPECT_EQ(bytes.size() - stats.bytesSkipped, want.offset);
        std::vector<MemRecord> got;
        for (const TraceChunk &c : rd.value()->chunks()) {
            EXPECT_LT(c.start.at + 16, want.offset);
            TracePosition at = c.start;
            std::vector<MemRecord> buf(c.records);
            ASSERT_EQ(rd.value()->read(at, buf.data(), c.records),
                      c.records);
            got.insert(got.end(), buf.begin(), buf.end());
        }
        expectSameRecords(want.records, got);
    };

    check(clean);
    for (std::size_t len = 0; len < clean.size(); ++len)
        check(std::vector<std::uint8_t>(
            clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len)));

    std::mt19937_64 rng(2024);
    for (int i = 0; i < 3'000; ++i) {
        std::vector<std::uint8_t> bytes = clean;
        for (std::uint64_t flips = 1 + rng() % 3; flips > 0; --flips) {
            const std::size_t bit = 8 * 16 + rng() % (8 * (bytes.size() - 16));
            bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        check(bytes);
    }

    // Forged records spliced in at a record boundary: control bytes
    // with reserved bits or type 3, and varints one byte too long or
    // with an overflowing tenth byte, in the pc and in the address.
    std::vector<std::vector<std::uint8_t>> forged;
    for (std::uint8_t control : {0x08, 0x10, 0x80, 0xF9, 0x03, 0x07})
        forged.push_back({control, 0x01, 0x01});
    std::vector<std::uint8_t> ten(9, 0x80);
    for (std::uint8_t last : {0x00, 0x01, 0x02, 0x7F, 0x80, 0x81}) {
        std::vector<std::uint8_t> v = ten;
        v.push_back(last);
        if (last >= 0x80)
            v.push_back(0x00);
        std::vector<std::uint8_t> pc_rec = {0x00};
        pc_rec.insert(pc_rec.end(), v.begin(), v.end());
        forged.push_back(pc_rec);
        std::vector<std::uint8_t> addr_rec = {0x01, 0x02};
        addr_rec.insert(addr_rec.end(), v.begin(), v.end());
        forged.push_back(addr_rec);
    }
    for (const std::vector<std::uint8_t> &f : forged) {
        for (std::size_t k : {std::size_t{0}, std::size_t{1},
                              boundaries.size() / 2,
                              boundaries.size() - 1}) {
            std::vector<std::uint8_t> bytes = clean;
            bytes.insert(bytes.begin() +
                             static_cast<std::ptrdiff_t>(boundaries[k]),
                         f.begin(), f.end());
            check(bytes);
        }
    }
    EXPECT_GT(opened, clean.size() / 2);
}

TEST_F(CorruptTraceTest, TruncatedDeltaTailLeavesNoChunkPastTheCut)
{
    // Two full view chunks and two records more, cut inside each byte
    // of the last two records: a chunk may start at the cut's record
    // only when that record survives.
    const std::size_t n = 2 * traceChunkRecords + 2;
    const std::vector<MemRecord> recs = varintRecords(n, 11);
    const std::vector<std::uint8_t> clean = deltaFileBytes(recs);
    std::size_t tail_start = 16;
    {
        delta::Codec codec;
        std::uint8_t buf[delta::maxRecordBytes];
        for (std::size_t i = 0; i + 2 < n; ++i)
            tail_start += delta::encodeRecord(codec, recs[i], buf);
    }
    TraceReadOptions tolerant;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    for (std::size_t len = tail_start - 1; len <= clean.size(); ++len) {
        SCOPED_TRACE(len);
        const std::vector<std::uint8_t> bytes(
            clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(len));
        const ref::RefDeltaDecode want = ref::refDecodeDelta(bytes);
        writeBytes(bytes);
        auto rd = TraceFileReader::open(path, tolerant);
        ASSERT_TRUE(rd.ok()) << rd.status().toString();
        const std::vector<TraceChunk> &chunks = rd.value()->chunks();
        ASSERT_EQ(chunks.size(), (want.records.size() +
                                  traceChunkRecords - 1) /
                                     traceChunkRecords);
        std::size_t total = 0;
        for (const TraceChunk &c : chunks) {
            EXPECT_LT(c.start.at + 16, want.offset);
            total += c.records;
        }
        EXPECT_EQ(total, want.records.size());
        TracePosition at = chunks.back().start;
        std::vector<MemRecord> last(chunks.back().records + 1);
        ASSERT_EQ(rd.value()->read(at, last.data(), last.size()),
                  chunks.back().records);
        last.pop_back();
        expectSameRecords(
            std::vector<MemRecord>(
                want.records.end() -
                    static_cast<std::ptrdiff_t>(last.size()),
                want.records.end()),
            last);
    }
}

TEST_F(CorruptTraceTest, PipeIsReadNotMapped)
{
    // More than a pipe buffer of records, so the writer blocks until
    // the reader drains it.
    const std::vector<MemRecord> recs = distinctRecords(5'000);
    auto bytes = header();
    for (const MemRecord &r : recs) {
        std::uint8_t packed[wire::recordBytes];
        wire::packRecord(r, packed);
        bytes.insert(bytes.end(), packed, packed + sizeof packed);
    }
    obs::Counter &mapped = obs::MetricsRegistry::global().counter(
        "ccm_ingest_bytes_total", "");

    // A regular file with the same bytes is mapped (and counted).
    writeBytes(bytes);
    std::uint64_t before = mapped.value();
    auto file = TraceFileReader::open(path);
    ASSERT_TRUE(file.ok()) << file.status().toString();
    EXPECT_EQ(mapped.value() - before, bytes.size());
    expectSameRecords(recs, drainBatches(*file.value(), 256));

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // If the open fails, closing the read end must not kill the test.
    auto oldPipe = std::signal(SIGPIPE, SIG_IGN);
    std::thread writer([&] {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::write(fds[1], bytes.data() + off,
                                      bytes.size() - off);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::close(fds[1]);
    });
    before = mapped.value();
    auto piped =
        TraceFileReader::open("/dev/fd/" + std::to_string(fds[0]));
    ::close(fds[0]);
    writer.join();
    std::signal(SIGPIPE, oldPipe);

    ASSERT_TRUE(piped.ok()) << piped.status().toString();
    EXPECT_EQ(mapped.value(), before);
    EXPECT_TRUE(piped.value()->readStats().clean());
    expectSameRecords(recs, drainBatches(*piped.value(), 97));
}

TEST_F(CorruptTraceTest, DefectNamesAreStable)
{
    EXPECT_STREQ(traceDefectName(TraceDefect::None), "none");
    EXPECT_STREQ(traceDefectName(TraceDefect::IoError), "io-error");
    EXPECT_STREQ(traceDefectName(TraceDefect::ZeroLength),
                 "zero-length");
    EXPECT_STREQ(traceDefectName(TraceDefect::TruncatedHeader),
                 "truncated-header");
    EXPECT_STREQ(traceDefectName(TraceDefect::BadMagic), "bad-magic");
    EXPECT_STREQ(traceDefectName(TraceDefect::BadVersion),
                 "bad-version");
    EXPECT_STREQ(traceDefectName(TraceDefect::PartialTail),
                 "partial-tail");
    EXPECT_STREQ(traceDefectName(TraceDefect::MidFileGarbage),
                 "mid-file-garbage");
}

// ---- FaultInjectingSource -----------------------------------------

VectorTrace
cleanTrace(std::size_t n)
{
    VectorTrace t;
    t.setName("clean");
    for (std::size_t i = 0; i < n; ++i)
        t.pushLoad(0x10000 + i * 64);
    return t;
}

std::vector<MemRecord>
drain(TraceSource &src)
{
    std::vector<MemRecord> out;
    MemRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

TEST(FaultInjectingSource, NoFaultsIsPassthrough)
{
    VectorTrace t = cleanTrace(50);
    FaultInjectingSource f(t, FaultPlan{});
    auto dirty = drain(f);
    ASSERT_EQ(dirty.size(), 50u);
    for (std::size_t i = 0; i < dirty.size(); ++i)
        EXPECT_EQ(dirty[i].addr, 0x10000u + i * 64);
    EXPECT_EQ(f.stats().bitFlips, 0u);
    EXPECT_EQ(f.stats().drops, 0u);
    EXPECT_EQ(f.name(), "clean+faults");
}

TEST(FaultInjectingSource, DropRateOneDropsEverything)
{
    VectorTrace t = cleanTrace(30);
    FaultPlan plan;
    plan.dropRate = 1.0;
    FaultInjectingSource f(t, plan);
    EXPECT_TRUE(drain(f).empty());
    EXPECT_EQ(f.stats().drops, 30u);
}

TEST(FaultInjectingSource, DuplicateRateOneDoublesTheTrace)
{
    VectorTrace t = cleanTrace(10);
    FaultPlan plan;
    plan.duplicateRate = 1.0;
    FaultInjectingSource f(t, plan);
    auto dirty = drain(f);
    ASSERT_EQ(dirty.size(), 20u);
    for (std::size_t i = 0; i < dirty.size(); i += 2)
        EXPECT_EQ(dirty[i].addr, dirty[i + 1].addr);
    EXPECT_EQ(f.stats().duplicates, 10u);
}

TEST(FaultInjectingSource, TruncationEndsTheStreamEarly)
{
    VectorTrace t = cleanTrace(100);
    FaultPlan plan;
    plan.truncateAfter = 25;
    FaultInjectingSource f(t, plan);
    EXPECT_EQ(drain(f).size(), 25u);
    EXPECT_TRUE(f.stats().truncated);

    // Truncation at/after the end is not truncation.
    VectorTrace t2 = cleanTrace(10);
    plan.truncateAfter = 10;
    FaultInjectingSource f2(t2, plan);
    EXPECT_EQ(drain(f2).size(), 10u);
    EXPECT_FALSE(f2.stats().truncated);
}

TEST(FaultInjectingSource, BitFlipsTouchExactlyOneBit)
{
    VectorTrace t = cleanTrace(40);
    FaultPlan plan;
    plan.bitFlipRate = 1.0;
    FaultInjectingSource f(t, plan);
    auto dirty = drain(f);
    ASSERT_EQ(dirty.size(), 40u);
    EXPECT_EQ(f.stats().bitFlips, 40u);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
        Addr cleanAddr = 0x10000 + i * 64;
        Addr cleanPc = t.at(i).pc;
        std::uint64_t diff = (dirty[i].addr ^ cleanAddr) |
                             (dirty[i].pc ^ cleanPc);
        // Exactly one bit across pc|addr differs, types untouched.
        EXPECT_EQ(__builtin_popcountll(dirty[i].addr ^ cleanAddr) +
                      __builtin_popcountll(dirty[i].pc ^ cleanPc),
                  1)
            << "record " << i;
        EXPECT_NE(diff, 0u);
        EXPECT_EQ(dirty[i].type, RecordType::Load);
    }
}

TEST(FaultInjectingSource, DeterministicAcrossReset)
{
    VectorTrace t = cleanTrace(200);
    FaultPlan plan;
    plan.seed = 7;
    plan.bitFlipRate = 0.1;
    plan.dropRate = 0.1;
    plan.duplicateRate = 0.1;
    FaultInjectingSource f(t, plan);

    auto first = drain(f);
    FaultStats firstStats = f.stats();
    f.reset();
    auto second = drain(f);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].addr, second[i].addr);
        EXPECT_EQ(first[i].pc, second[i].pc);
    }
    EXPECT_EQ(f.stats().bitFlips, firstStats.bitFlips);
    EXPECT_EQ(f.stats().drops, firstStats.drops);
    EXPECT_EQ(f.stats().duplicates, firstStats.duplicates);

    // Some faults actually fired on a 200-record trace at 10% rates.
    EXPECT_GT(firstStats.bitFlips + firstStats.drops +
                  firstStats.duplicates,
              0u);
}

TEST(FaultInjectingSource, DifferentSeedsDiffer)
{
    VectorTrace t = cleanTrace(200);
    FaultPlan a;
    a.seed = 1;
    a.dropRate = 0.5;
    FaultPlan b = a;
    b.seed = 2;

    FaultInjectingSource fa(t, a);
    auto da = drain(fa);
    t.reset();
    FaultInjectingSource fb(t, b);
    auto db = drain(fb);

    bool differ = da.size() != db.size();
    for (std::size_t i = 0; !differ && i < da.size(); ++i)
        differ = da[i].addr != db[i].addr;
    EXPECT_TRUE(differ);
}

TEST(FaultInjectingSource, InvalidRatesAreFatal)
{
    VectorTrace t = cleanTrace(1);
    FaultPlan plan;
    plan.dropRate = 1.5;
    EXPECT_DEATH(FaultInjectingSource(t, plan), "within");
}

TEST(FaultInjectingSource, PlanValidateChecksEveryRate)
{
    FaultPlan plan;
    plan.bitFlipRate = 1.0;
    plan.dropRate = 0.0;
    EXPECT_TRUE(plan.validate().isOk());
    for (double bad : {2.0, -0.1, std::nan("")}) {
        FaultPlan p;
        p.duplicateRate = bad;
        EXPECT_EQ(p.validate().code(), ErrorCode::BadConfig) << bad;
        p.duplicateRate = 0.0;
        p.bitFlipRate = bad;
        EXPECT_EQ(p.validate().code(), ErrorCode::BadConfig) << bad;
    }
}

TEST(FaultInjectingSource, DirtyTraceStillSimulatesRoundTrip)
{
    // A dirty trace written to disk and read back strictly is still a
    // structurally valid trace: faults corrupt content, not format.
    VectorTrace t = cleanTrace(100);
    FaultPlan plan;
    plan.seed = 3;
    plan.bitFlipRate = 0.2;
    plan.dropRate = 0.1;
    plan.duplicateRate = 0.1;
    FaultInjectingSource f(t, plan);

    std::string path = ::testing::TempDir() + "ccm_dirty_rt.bin";
    std::size_t n;
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        n = w.value()->writeAll(f).value();
        ASSERT_TRUE(w.value()->close().isOk());
    }
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->size(), n);
    EXPECT_EQ(probeTraceFile(path), TraceDefect::None);
    std::remove(path.c_str());
}

} // namespace
} // namespace ccm
