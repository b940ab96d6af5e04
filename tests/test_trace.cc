/**
 * @file
 * Unit tests for the trace layer: records, in-memory traces, and the
 * binary trace-file round trip.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "trace/wire.hh"

namespace ccm
{
namespace
{

TEST(WireCodec, PackedRecordIsLittleEndianOnAnyHost)
{
    MemRecord r;
    r.pc = 0x0102030405060708ULL;
    r.addr = 0x1112131415161718ULL;
    r.type = RecordType::Load;
    r.dependsOnPrevLoad = true;

    std::uint8_t buf[wire::recordBytes];
    wire::packRecord(r, buf);

    // The exact bytes the format doc promises ("All integers are
    // little-endian"), independent of the host's endianness.
    const std::uint8_t expect[wire::recordBytes] = {
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // pc LE
        0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // addr LE
        0x01,                                           // Load
        0x01,                                           // depends flag
        0,    0,    0,    0,    0,    0,                // padding
    };
    for (std::size_t i = 0; i < wire::recordBytes; ++i)
        EXPECT_EQ(buf[i], expect[i]) << "byte " << i;

    const MemRecord back = wire::unpackRecord(buf);
    EXPECT_EQ(back.pc, r.pc);
    EXPECT_EQ(back.addr, r.addr);
    EXPECT_EQ(back.type, r.type);
    EXPECT_TRUE(back.dependsOnPrevLoad);
    EXPECT_TRUE(wire::plausibleRecord(buf));

    // Serve frames hand the decoder unaligned pointers: the loads
    // must read a known pattern at an odd offset, low byte first.
    std::uint8_t odd[1 + 8 + 4];
    for (std::size_t i = 0; i < sizeof odd; ++i)
        odd[i] = static_cast<std::uint8_t>(0xa0 + i);
    EXPECT_EQ(wire::loadLe64(odd + 1), 0xa8a7a6a5a4a3a2a1ULL);
    EXPECT_EQ(wire::loadLe32(odd + 9), 0xacabaaa9U);
}

/** The byte-wise plausibility test the one-word form replaced. */
bool
plausibleBytewise(const std::uint8_t *buf)
{
    if (buf[16] > static_cast<std::uint8_t>(RecordType::Store))
        return false;
    if ((buf[17] & ~wire::knownFlags) != 0)
        return false;
    for (int i = 18; i < 24; ++i) {
        if (buf[i] != 0)
            return false;
    }
    return true;
}

TEST(WireCodec, OneWordPlausibilityMatchesBytewise)
{
    // pc and addr bytes carry no invariant; a fixed pattern in them
    // must not matter to either form.
    std::uint8_t buf[wire::recordBytes];
    for (std::size_t i = 0; i < 16; ++i)
        buf[i] = static_cast<std::uint8_t>(0x5a + 37 * i);

    // Every type byte and flags byte, padding zero.
    std::memset(buf + 16, 0, 8);
    for (unsigned type = 0; type < 256; ++type) {
        for (unsigned flags = 0; flags < 256; ++flags) {
            buf[16] = static_cast<std::uint8_t>(type);
            buf[17] = static_cast<std::uint8_t>(flags);
            ASSERT_EQ(wire::plausibleRecord(buf), plausibleBytewise(buf))
                << "type " << type << " flags " << flags;
        }
    }

    // Each padding byte nonzero on its own, under every plausible
    // type and flags byte: always implausible, in both forms.
    for (unsigned type = 0;
         type <= static_cast<unsigned>(RecordType::Store); ++type) {
        for (unsigned flags : {0u, unsigned{wire::knownFlags}}) {
            for (int at = 18; at < 24; ++at) {
                for (unsigned v = 1; v < 256; ++v) {
                    std::memset(buf + 16, 0, 8);
                    buf[16] = static_cast<std::uint8_t>(type);
                    buf[17] = static_cast<std::uint8_t>(flags);
                    buf[at] = static_cast<std::uint8_t>(v);
                    ASSERT_FALSE(wire::plausibleRecord(buf))
                        << "byte " << at << " = " << v;
                    ASSERT_FALSE(plausibleBytewise(buf));
                }
            }
        }
    }
}

TEST(MemRecord, TypePredicates)
{
    MemRecord r;
    EXPECT_FALSE(r.isMem());
    r.type = RecordType::Load;
    EXPECT_TRUE(r.isMem());
    EXPECT_TRUE(r.isLoad());
    EXPECT_FALSE(r.isStore());
    r.type = RecordType::Store;
    EXPECT_TRUE(r.isStore());
    EXPECT_FALSE(r.isLoad());
}

TEST(VectorTrace, PushAndReplay)
{
    VectorTrace t;
    t.pushLoad(0x100);
    t.pushStore(0x200);
    t.pushNonMem(2);
    EXPECT_EQ(t.size(), 4u);

    MemRecord r;
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.addr, 0x100u);
    EXPECT_TRUE(r.isLoad());
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.addr, 0x200u);
    EXPECT_TRUE(r.isStore());
    ASSERT_TRUE(t.next(r));
    EXPECT_FALSE(r.isMem());
    ASSERT_TRUE(t.next(r));
    EXPECT_FALSE(t.next(r));
}

TEST(VectorTrace, ResetReplaysFromStart)
{
    VectorTrace t;
    t.pushLoad(0xAAA);
    MemRecord r;
    ASSERT_TRUE(t.next(r));
    ASSERT_FALSE(t.next(r));
    t.reset();
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.addr, 0xAAAu);
}

TEST(VectorTrace, ExplicitPcIsKept)
{
    VectorTrace t;
    t.pushLoad(0x100, 0x42);
    MemRecord r;
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.pc, 0x42u);
}

TEST(VectorTrace, DefaultPcAdvances)
{
    VectorTrace t;
    t.pushLoad(0x100);
    t.pushLoad(0x200);
    EXPECT_NE(t.at(0).pc, t.at(1).pc);
}

TEST(VectorTrace, CaptureCopiesSourceAndName)
{
    VectorTrace src({}, {});
    src.setName("mini");
    src.pushLoad(0x10);
    src.pushStore(0x20);
    VectorTrace copy = VectorTrace::capture(src);
    EXPECT_EQ(copy.name(), "mini");
    EXPECT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy.at(0).addr, 0x10u);
    EXPECT_EQ(copy.at(1).addr, 0x20u);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test: ctest runs suites in parallel.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "ccm_trace_" +
               info->name() + ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(TraceFileTest, RoundTripPreservesRecords)
{
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        MemRecord r;
        r.pc = 0x1000;
        r.addr = 0xdeadbeef;
        r.type = RecordType::Load;
        r.dependsOnPrevLoad = true;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
        r.pc = 0x1004;
        r.addr = 0x12345678;
        r.type = RecordType::Store;
        r.dependsOnPrevLoad = false;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
    }
    auto opened = TraceFileReader::open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    TraceFileReader &rd = *opened.value();
    EXPECT_EQ(rd.size(), 2u);
    MemRecord r;
    ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(r.pc, 0x1000u);
    EXPECT_EQ(r.addr, 0xdeadbeefu);
    EXPECT_TRUE(r.isLoad());
    EXPECT_TRUE(r.dependsOnPrevLoad);
    ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(r.addr, 0x12345678u);
    EXPECT_TRUE(r.isStore());
    EXPECT_FALSE(r.dependsOnPrevLoad);
    EXPECT_FALSE(rd.next(r));
}

TEST_F(TraceFileTest, WriteAllDrainsASource)
{
    VectorTrace src;
    for (int i = 0; i < 100; ++i)
        src.pushLoad(0x1000 + i * 64);
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        auto n = w.value()->writeAll(src);
        ASSERT_TRUE(n.ok()) << n.status().toString();
        EXPECT_EQ(n.value(), 100u);
    }
    auto opened = TraceFileReader::open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    TraceFileReader &rd = *opened.value();
    EXPECT_EQ(rd.size(), 100u);
    MemRecord r;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(rd.next(r));
        EXPECT_EQ(r.addr, 0x1000u + i * 64);
    }
}

TEST_F(TraceFileTest, ReaderResets)
{
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        MemRecord r;
        r.type = RecordType::Load;
        r.addr = 0x40;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
    }
    auto opened = TraceFileReader::open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    TraceFileReader &rd = *opened.value();
    MemRecord r;
    ASSERT_TRUE(rd.next(r));
    ASSERT_FALSE(rd.next(r));
    rd.reset();
    ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(r.addr, 0x40u);
}

TEST_F(TraceFileTest, WriterCreateReportsUnwritablePath)
{
    auto w = TraceFileWriter::create("/nonexistent/dir/out.bin");
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), ErrorCode::IoError);
    // The status carries the OS diagnostic, not just the path.
    EXPECT_NE(w.status().message().find("("), std::string::npos);
}

TEST_F(TraceFileTest, WriterCloseReportsStatusAndIsIdempotent)
{
    auto w = TraceFileWriter::create(path);
    ASSERT_TRUE(w.ok());
    MemRecord r;
    r.type = RecordType::Load;
    r.addr = 0x40;
    EXPECT_TRUE(w.value()->writeChecked(r).isOk());
    EXPECT_TRUE(w.value()->close().isOk());
    EXPECT_TRUE(w.value()->close().isOk()); // second close is a no-op

    // Writes after close are recoverable errors via the checked path.
    Status s = w.value()->writeChecked(r);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::IoError);
}

TEST_F(TraceFileTest, OpenReturnsReaderWithCleanStats)
{
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        MemRecord r;
        r.type = RecordType::Store;
        r.addr = 0x80;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
    }
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->size(), 1u);
    EXPECT_TRUE(rd.value()->readStats().clean());
    EXPECT_EQ(rd.value()->readStats().recordsRead, 1u);
}

TEST_F(TraceFileTest, ReadStatsDumpFormat)
{
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        MemRecord r;
        r.type = RecordType::Load;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
    }
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    std::ostringstream os;
    rd.value()->readStats().dump(os, "t");
    std::string s = os.str();
    EXPECT_NE(s.find("t.records_read 1"), std::string::npos);
    EXPECT_NE(s.find("t.resync_events 0"), std::string::npos);
    EXPECT_NE(s.find("t.bytes_skipped 0"), std::string::npos);
    EXPECT_NE(s.find("t.truncated_tail 0"), std::string::npos);
    EXPECT_NE(s.find("t.first_defect none"), std::string::npos);
}

// The "...IsFatal" cases are fatal to the read, and come back as a
// Status rather than ending the process.
TEST_F(TraceFileTest, MissingFileIsFatal)
{
    auto rd = TraceFileReader::open("/nonexistent/nope.bin");
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::IoError);
    EXPECT_EQ(rd.status().message().rfind(
                  "cannot open trace file: /nonexistent/nope.bin (", 0),
              0u)
        << rd.status().message();
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite("NOTATRACEFILE!!!", 1, 16, f);
        std::fclose(f);
    }
    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_EQ(rd.status().message(), "bad trace magic in " + path);
}

TEST_F(TraceFileTest, TruncatedRecordIsFatal)
{
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        MemRecord r;
        r.type = RecordType::Load;
        ASSERT_TRUE(w.value()->writeChecked(r).isOk());
    }
    // Chop off the last byte.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), len - 1), 0);
    auto rd = TraceFileReader::open(path);
    ASSERT_FALSE(rd.ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::CorruptTrace);
    EXPECT_EQ(rd.status().message(),
              "trailing partial record in trace " + path);
}

} // namespace
} // namespace ccm
