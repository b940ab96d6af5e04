/**
 * @file
 * Tests for the random-access trace view (trace/source.hh), the one
 * chunked read over it (mapChunks), and the consumers that read a
 * trace in parallel chunks: the sample lane's scan and interval
 * replay, and the sharded classify partition.
 *
 * Every case runs each consumer twice over the same records: through
 * the view, and through a wrapper that hides it, which takes the
 * streamed one-thread path.  The two must agree field for field, and
 * the rendered documents byte for byte.  The cases sit on the chunk
 * edges: an empty body, fewer than one chunk of records, exactly one
 * chunk, a chunk of only non-memory records, a tolerated truncated
 * delta tail, and a packed defect map of three runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/sink.hh"
#include "sample/engine.hh"
#include "sample/mrc.hh"
#include "sim/sharded.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "trace/wire.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

/** The records of @p src with its view hidden: the streamed path. */
class StreamOnly : public TraceSource
{
  public:
    explicit StreamOnly(TraceSource &src) : src_(src) {}

    bool next(MemRecord &out) override { return src_.next(out); }
    std::size_t
    nextBatch(MemRecord *out, std::size_t n) override
    {
        return src_.nextBatch(out, n);
    }
    void reset() override { src_.reset(); }
    std::string name() const override { return src_.name(); }

  private:
    TraceSource &src_;
};

/** The first @p n records of the gcc workload. */
std::vector<MemRecord>
gccRecords(std::size_t n)
{
    auto wl = makeWorkload("gcc", n, 42);
    std::vector<MemRecord> recs = VectorTrace::capture(*wl).records();
    EXPECT_GE(recs.size(), n);
    recs.resize(n);
    return recs;
}

/** @p recs with records [from, to) made non-memory. */
std::vector<MemRecord>
withNonMemRange(std::vector<MemRecord> recs, std::size_t from,
                std::size_t to)
{
    for (std::size_t i = from; i < to; ++i) {
        recs[i].type = RecordType::NonMem;
        recs[i].addr = 0;
        recs[i].dependsOnPrevLoad = false;
    }
    return recs;
}

void
writeTrace(const std::string &path, TraceEncoding enc,
           const std::vector<MemRecord> &recs)
{
    auto w = TraceFileWriter::create(path, enc);
    ASSERT_TRUE(w.ok()) << w.status().toString();
    VectorTrace src("recs", recs);
    ASSERT_TRUE(w.value()->writeAll(src).ok());
    ASSERT_TRUE(w.value()->close().isOk());
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

/**
 * The view's chunks tile @p recs in order, none longer than
 * traceChunkRecords, and each decodes from its own start.
 */
void
expectChunksTile(const TraceView &view, const std::vector<MemRecord> &recs)
{
    std::vector<MemRecord> got;
    for (const TraceChunk &c : view.chunks()) {
        EXPECT_GT(c.records, 0u);
        EXPECT_LE(c.records, traceChunkRecords);
        TracePosition at = c.start;
        std::vector<MemRecord> buf(c.records);
        ASSERT_EQ(view.read(at, buf.data(), c.records), c.records);
        got.insert(got.end(), buf.begin(), buf.end());
    }
    expectSameRecords(recs, got);
}

/** Every record of one mapChunks() piece, and where it started. */
struct Piece
{
    std::size_t index = 0;
    bool positioned = false;
    std::vector<MemRecord> records;
};

std::vector<Piece>
readPieces(TraceSource &src)
{
    return mapChunks(src, 4, [](ChunkReader &r) {
        Piece p;
        p.index = r.index();
        p.positioned = r.position() != nullptr;
        MemRecord batch[7];
        std::size_t got;
        while ((got = r.read(batch, 7)) > 0)
            p.records.insert(p.records.end(), batch, batch + got);
        return p;
    });
}

/**
 * mapChunks() gives one piece per view chunk, in stream order, each
 * holding that chunk's records (none for an empty view), and over the
 * same source with its view hidden one piece of every record with no
 * position.
 */
void
expectSamePieces(TraceSource &src, const std::vector<MemRecord> &recs)
{
    const std::vector<TraceChunk> &chunks = src.view()->chunks();
    const std::vector<Piece> pieces = readPieces(src);
    ASSERT_EQ(pieces.size(), chunks.size());
    std::vector<MemRecord> all;
    for (std::size_t c = 0; c < pieces.size(); ++c) {
        SCOPED_TRACE("piece " + std::to_string(c));
        EXPECT_EQ(pieces[c].index, c);
        EXPECT_TRUE(pieces[c].positioned);
        EXPECT_EQ(pieces[c].records.size(), chunks[c].records);
        all.insert(all.end(), pieces[c].records.begin(),
                   pieces[c].records.end());
    }
    expectSameRecords(recs, all);

    StreamOnly streamed(src);
    MemRecord skipped;
    streamed.next(skipped); // mapChunks resets a streamed source
    const std::vector<Piece> whole = readPieces(streamed);
    ASSERT_EQ(whole.size(), 1u);
    EXPECT_EQ(whole[0].index, 0u);
    EXPECT_FALSE(whole[0].positioned);
    expectSameRecords(recs, whole[0].records);
}

/**
 * scanTrace through the view keeps the streamed scan's references,
 * ordinals and buckets in order, and each checkpoint's cursor is
 * followed by memory reference refs + 1.
 */
void
expectSameScan(TraceSource &src, const std::vector<MemRecord> &recs)
{
    sample::MrcConfig cfg;
    cfg.rate = 0.05;
    StreamOnly streamed(src);
    auto want = sample::scanTrace(streamed, cfg);
    auto got = sample::scanTrace(src, cfg);
    ASSERT_TRUE(want.ok()) << want.status().toString();
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value().totalRefs, want.value().totalRefs);
    EXPECT_EQ(got.value().threshold, want.value().threshold);

    auto flat = [](const sample::SampledStream &s) {
        std::vector<sample::SampledRef> out;
        for (const auto &seg : s.segments)
            out.insert(out.end(), seg.begin(), seg.end());
        return out;
    };
    const auto a = flat(want.value());
    const auto b = flat(got.value());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(b[i].line, a[i].line) << "ref " << i;
        ASSERT_EQ(b[i].ordinal, a[i].ordinal) << "ref " << i;
        ASSERT_EQ(b[i].bucket, a[i].bucket) << "ref " << i;
    }

    std::vector<const MemRecord *> mem;
    for (const MemRecord &r : recs)
        if (r.isMem())
            mem.push_back(&r);
    const TraceView &view = *src.view();
    const auto &cps = got.value().checkpoints;
    ASSERT_EQ(cps.empty(), view.chunks().empty());
    Count prev = 0;
    for (const sample::TraceCheckpoint &cp : cps) {
        SCOPED_TRACE(cp.refs);
        EXPECT_GE(cp.refs, prev);
        prev = cp.refs;
        TracePosition at = cp.at;
        MemRecord r;
        bool found = false;
        while (!found && view.read(at, &r, 1) == 1)
            found = r.isMem();
        ASSERT_EQ(found, cp.refs < mem.size());
        if (found) {
            EXPECT_EQ(r.addr, mem[cp.refs]->addr);
            EXPECT_EQ(r.pc, mem[cp.refs]->pc);
        }
    }
}

std::string
sampleText(const Expected<sample::SampleReport> &rep)
{
    if (!rep.ok())
        return rep.status().toString();
    sample::SampleReport r = rep.value();
    r.wallSecondsSampled = 0.0;
    r.wallSecondsExact = 0.0;
    return obs::sampleDocument("trace", r).toString();
}

/** The whole analysis, replay and exact references included. */
void
expectSameAnalysis(TraceSource &src)
{
    sample::SampleRunConfig cfg;
    cfg.mrc.rate = 0.05;
    cfg.mrc.windowRefs = 2'500;
    cfg.intervals = 6;
    cfg.interval.warmupRefs = 3'000;
    cfg.compareExact = true;
    StreamOnly streamed(src);
    const std::string want =
        sampleText(sample::runSampleAnalysis(streamed, cfg));
    EXPECT_EQ(sampleText(sample::runSampleAnalysis(src, cfg)), want);
}

/** Classify at several shard counts against the streamed K = 1 run. */
void
expectSameClassify(TraceSource &src)
{
    ShardedClassifyConfig cfg;
    cfg.cacheBytes = 4096;
    cfg.assoc = 1;
    cfg.interval = 997;
    StreamOnly streamed(src);
    const std::string want =
        obs::classifyDocument("trace", runShardedClassify(streamed, cfg))
            .toString();
    for (unsigned k : {1u, 3u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        cfg.shards = k;
        EXPECT_EQ(
            obs::classifyDocument("trace", runShardedClassify(src, cfg))
                .toString(),
            want);
    }
}

/** Every check on @p src, whose records are @p recs. */
void
expectViewAgrees(TraceSource &src, const std::vector<MemRecord> &recs)
{
    ASSERT_NE(src.view(), nullptr);
    {
        SCOPED_TRACE("chunks");
        expectChunksTile(*src.view(), recs);
    }
    {
        SCOPED_TRACE("mapChunks");
        expectSamePieces(src, recs);
    }
    {
        SCOPED_TRACE("scan");
        expectSameScan(src, recs);
    }
    {
        SCOPED_TRACE("analysis");
        expectSameAnalysis(src);
    }
    {
        SCOPED_TRACE("classify");
        expectSameClassify(src);
    }
}

class TraceViewTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        base = ::testing::TempDir() + "ccm_view_" + info->name();
    }

    void
    TearDown() override
    {
        for (const std::string &p : written)
            std::remove(p.c_str());
    }

    /** @p recs as a span, a packed file and a delta file. */
    void
    expectEverySourceAgrees(const std::vector<MemRecord> &recs)
    {
        SpanTrace span(recs.data(), recs.size());
        {
            SCOPED_TRACE("span");
            expectViewAgrees(span, recs);
        }
        for (TraceEncoding enc :
             {TraceEncoding::Packed, TraceEncoding::Delta}) {
            SCOPED_TRACE(toString(enc));
            const std::string path = file(toString(enc));
            writeTrace(path, enc, recs);
            auto rd = TraceFileReader::open(path);
            ASSERT_TRUE(rd.ok()) << rd.status().toString();
            expectViewAgrees(*rd.value(), recs);
        }
    }

    std::string
    file(const std::string &tag)
    {
        written.push_back(base + "." + tag);
        return written.back();
    }

    std::string base;
    std::vector<std::string> written;
};

TEST_F(TraceViewTest, EmptyBodyHasNoChunks)
{
    const std::vector<MemRecord> none;
    SpanTrace span(none.data(), 0);
    EXPECT_TRUE(span.chunks().empty());
    EXPECT_TRUE(readPieces(span).empty());
    for (TraceEncoding enc : {TraceEncoding::Packed, TraceEncoding::Delta}) {
        const std::string path = file(toString(enc));
        writeTrace(path, enc, none);
        auto rd = TraceFileReader::open(path);
        ASSERT_TRUE(rd.ok()) << rd.status().toString();
        EXPECT_TRUE(rd.value()->chunks().empty());
    }
    expectEverySourceAgrees(none);
}

TEST_F(TraceViewTest, FewerRecordsThanOneChunk)
{
    const std::vector<MemRecord> recs = gccRecords(50'000);
    SpanTrace span(recs.data(), recs.size());
    ASSERT_EQ(span.chunks().size(), 1u);
    expectEverySourceAgrees(recs);
}

TEST_F(TraceViewTest, ExactlyOneChunk)
{
    const std::vector<MemRecord> recs = gccRecords(traceChunkRecords);
    SpanTrace span(recs.data(), recs.size());
    ASSERT_EQ(span.chunks().size(), 1u);
    expectEverySourceAgrees(recs);

    // One record more starts a second chunk.
    const std::vector<MemRecord> more = gccRecords(traceChunkRecords + 1);
    const std::string path = file("more");
    writeTrace(path, TraceEncoding::Delta, more);
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    ASSERT_EQ(rd.value()->chunks().size(), 2u);
    EXPECT_EQ(rd.value()->chunks()[1].records, 1u);
    expectViewAgrees(*rd.value(), more);
}

TEST_F(TraceViewTest, ChunkOfOnlyNonMemoryRecords)
{
    // Chunk 1 holds no memory reference, so the scan's checkpoints at
    // the starts of chunks 1 and 2 carry the same reference count,
    // and a window's warm-up can start in chunk 0 and run across it.
    const std::vector<MemRecord> recs = withNonMemRange(
        gccRecords(3 * traceChunkRecords + 1'000), traceChunkRecords,
        2 * traceChunkRecords);
    SpanTrace span(recs.data(), recs.size());
    ASSERT_EQ(span.chunks().size(), 4u);
    expectEverySourceAgrees(recs);
}

TEST_F(TraceViewTest, TruncatedDeltaTailIsCutBeforeTheLastChunk)
{
    // The record that would start chunk 2 is cut one byte short: the
    // tolerant view ends with chunk 1, and every consumer reads only
    // the whole records.
    const std::vector<MemRecord> recs =
        gccRecords(2 * traceChunkRecords + 1);
    const std::string path = file("delta");
    writeTrace(path, TraceEncoding::Delta, recs);
    std::vector<char> bytes = readFile(path);
    bytes.pop_back();
    writeFile(path, bytes);

    TraceReadOptions tolerant;
    tolerant.tolerateTruncatedTail = true;
    tolerant.quiet = true;
    auto rd = TraceFileReader::open(path, tolerant);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    ASSERT_TRUE(rd.value()->readStats().truncatedTail);
    ASSERT_EQ(rd.value()->chunks().size(), 2u);
    const std::vector<MemRecord> whole(recs.begin(), recs.end() - 1);
    expectViewAgrees(*rd.value(), whole);
}

TEST_F(TraceViewTest, TolerantPackedDefectMapOfThreeRuns)
{
    // Two garbage runs split the records into runs of about 70k, 80k
    // and 50k records, each cut into chunks of its own.
    const std::vector<MemRecord> recs = gccRecords(200'000);
    const std::string path = file("packed");
    writeTrace(path, TraceEncoding::Packed, recs);
    std::vector<char> bytes = readFile(path);
    constexpr std::size_t garbage = 31;
    for (std::size_t from : {std::size_t{150'000}, std::size_t{70'000}}) {
        // The first record at or after `from` that the garbage can
        // precede without the resync finding a false boundary in it.
        std::uint8_t probe[garbage + wire::recordBytes];
        std::fill(probe, probe + garbage, std::uint8_t{0xFF});
        std::size_t at = from;
        for (;; ++at) {
            wire::packRecord(recs.at(at), probe + garbage);
            bool clean = true;
            for (std::size_t j = 0; j < garbage; ++j)
                clean = clean && !wire::plausibleRecord(probe + j);
            if (clean)
                break;
        }
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         16 + at * wire::recordBytes),
                     garbage, static_cast<char>(0xFF));
    }
    writeFile(path, bytes);

    TraceReadOptions tolerant;
    tolerant.corruptionBudget = 2;
    tolerant.quiet = true;
    auto rd = TraceFileReader::open(path, tolerant);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    ASSERT_EQ(rd.value()->packedRuns().size(), 3u);
    ASSERT_EQ(rd.value()->chunks().size(), 5u);
    expectViewAgrees(*rd.value(), recs);
}

/**
 * Four threads decode every chunk of @p view at once; each must get
 * @p recs, what a lone reader gets.
 */
void
expectThreadsReadAlike(const TraceView &view,
                       const std::vector<MemRecord> &recs)
{
    std::vector<std::vector<MemRecord>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&, t] {
            for (const TraceChunk &c : view.chunks()) {
                TracePosition at = c.start;
                std::vector<MemRecord> buf(c.records);
                view.read(at, buf.data(), c.records);
                got[t].insert(got[t].end(), buf.begin(), buf.end());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::vector<MemRecord> &g : got)
        expectSameRecords(recs, g);
}

TEST_F(TraceViewTest, ManyThreadsReadOneViewAtOnce)
{
    // read() is const and touches only the caller's cursor: threads
    // decoding every chunk of one delta view at once each get the
    // records a lone reader gets.
    const std::vector<MemRecord> recs = gccRecords(5 * traceChunkRecords);
    const std::string path = file("delta");
    writeTrace(path, TraceEncoding::Delta, recs);
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    expectThreadsReadAlike(*rd.value(), recs);
}

TEST_F(TraceViewTest, ManyThreadsReadOneMultiRangeDeltaView)
{
    // A delta body of five 1 MiB byte ranges, decoded in parallel at
    // open: its chunks restart at each range, so some are short, and
    // every consumer and four threads decoding every chunk at once
    // still get the records a lone reader gets.
    auto wl = makeWorkload("gcc", 350'000, 42);
    const std::vector<MemRecord> recs = VectorTrace::capture(*wl).records();
    const std::string path = file("ranges");
    writeTrace(path, TraceEncoding::Delta, recs);
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    const TraceView &view = *rd.value();
    std::size_t short_chunks = 0;
    for (const TraceChunk &c : view.chunks())
        short_chunks += c.records < traceChunkRecords ? 1 : 0;
    EXPECT_GE(short_chunks, 4u);
    expectViewAgrees(*rd.value(), recs);
    expectThreadsReadAlike(view, recs);
}

} // namespace
