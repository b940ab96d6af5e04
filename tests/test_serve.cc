/**
 * @file
 * The ccm-serve streaming subsystem: frame protocol (encode, parse,
 * resync), the bounded record queue (block vs shed backpressure),
 * daemon config parsing, the per-stream pipeline's byte-identity with
 * the batch path, and the daemon end to end over real unix-domain
 * sockets — including the fault-isolation acceptance gate (N
 * concurrent streams, some fault-injected, the rest unharmed).
 *
 * Everything here is expected to pass under the tsan preset: the
 * daemon's thread model (acceptor + per-connection readers +
 * per-stream simulators + control + reaper) gets its concurrency
 * shakedown in these tests.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/sink.hh"
#include "serve/client.hh"
#include "serve/config.hh"
#include "serve/daemon.hh"
#include "serve/frame.hh"
#include "serve/queue.hh"
#include "serve/stream.hh"
#include "sim/experiment.hh"
#include "trace/fault_trace.hh"
#include "workloads/registry.hh"

using namespace ccm;
using obs::JsonValue;

namespace
{

/** Collecting sink for frame-parser tests. */
struct CollectSink final : serve::FrameSink
{
    std::vector<MemRecord> records;
    std::vector<std::string> hellos;
    int ends = 0;

    void
    onHello(std::uint32_t, const std::string &name) override
    {
        hellos.push_back(name);
    }

    void
    onRecords(const MemRecord *recs, std::size_t n) override
    {
        records.insert(records.end(), recs, recs + n);
    }

    void onEnd() override { ++ends; }
};

/** Small, plausible records the wire codec will accept. */
std::vector<MemRecord>
someRecords(std::size_t n, std::uint64_t salt = 0)
{
    std::vector<MemRecord> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].pc = 0x400000 + 4 * i;
        out[i].addr = 0x10000 + 64 * (i + salt);
        out[i].type =
            (i % 3 == 0) ? RecordType::Store : RecordType::Load;
    }
    return out;
}

/** Poll @p pred every 5 ms until it holds or @p ms elapse. */
bool
waitFor(const std::function<bool()> &pred, int ms = 10000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

std::string
sockPath(const char *tag)
{
    return ::testing::TempDir() + "ccm_" + tag + ".sock";
}

std::uint64_t
counter(const serve::ServeDaemon &d, const char *key)
{
    return d.statsDocument().at("daemon").at(key).asU64();
}

} // namespace

// ---- Frame protocol ------------------------------------------------

TEST(ServeFrame, RoundTripHelloRecordsEnd)
{
    std::vector<std::uint8_t> wire;
    serve::appendHelloFrame(wire, "unit-1");
    std::vector<MemRecord> recs = someRecords(600); // > one frame
    serve::appendRecordsFrames(wire, recs.data(), recs.size());
    serve::appendEndFrame(wire);

    CollectSink sink;
    serve::FrameParser parser;
    // Drip-feed in awkward chunk sizes to exercise reassembly.
    for (std::size_t at = 0; at < wire.size();) {
        std::size_t n = std::min<std::size_t>(7, wire.size() - at);
        parser.feed(wire.data() + at, n, sink);
        at += n;
    }
    parser.finish(sink);

    ASSERT_EQ(sink.hellos.size(), 1u);
    EXPECT_EQ(sink.hellos[0], "unit-1");
    EXPECT_EQ(sink.ends, 1);
    EXPECT_TRUE(parser.sawEnd());
    ASSERT_EQ(sink.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(sink.records[i].addr, recs[i].addr);
        EXPECT_EQ(sink.records[i].pc, recs[i].pc);
    }
    const serve::FrameStats &fs = parser.stats();
    EXPECT_TRUE(fs.clean());
    EXPECT_EQ(fs.records, recs.size());
    EXPECT_EQ(fs.defects(), 0u);
}

TEST(ServeFrame, ResyncsPastGarbageBetweenFrames)
{
    std::vector<std::uint8_t> wire;
    serve::appendHelloFrame(wire, "dirty");
    std::vector<MemRecord> first = someRecords(100);
    serve::appendRecordsFrames(wire, first.data(), first.size());
    // A run of garbage that contains no believable frame boundary.
    wire.insert(wire.end(), 57, 0xa5);
    std::vector<MemRecord> second = someRecords(100, 7);
    serve::appendRecordsFrames(wire, second.data(), second.size());
    serve::appendEndFrame(wire);

    CollectSink sink;
    serve::FrameParser parser;
    parser.feed(wire.data(), wire.size(), sink);
    parser.finish(sink);

    // Both record frames survive; the garbage is counted, not fatal.
    EXPECT_EQ(sink.records.size(), 200u);
    EXPECT_TRUE(parser.sawEnd());
    const serve::FrameStats &fs = parser.stats();
    EXPECT_EQ(fs.firstDefect, serve::FrameDefect::BadMagic);
    EXPECT_EQ(fs.resyncEvents, 1u);
    EXPECT_EQ(fs.bytesSkipped, 57u);
}

TEST(ServeFrame, ChecksumMismatchDropsOnlyThatFrame)
{
    std::vector<std::uint8_t> wire;
    std::vector<MemRecord> recs = someRecords(10);
    serve::appendRecordsFrames(wire, recs.data(), recs.size());
    const std::size_t frame1 = wire.size();
    serve::appendRecordsFrames(wire, recs.data(), recs.size());
    // Corrupt one payload byte of the second frame.
    wire[frame1 + serve::kFrameHeaderBytes + 3] ^= 0xff;
    serve::appendEndFrame(wire);

    CollectSink sink;
    serve::FrameParser parser;
    parser.feed(wire.data(), wire.size(), sink);
    parser.finish(sink);

    EXPECT_EQ(sink.records.size(), 10u);
    EXPECT_TRUE(parser.sawEnd());
    // A bad checksum means the claimed length cannot be trusted, so
    // the parser resyncs byte-by-byte rather than skipping a "frame".
    EXPECT_EQ(parser.stats().firstDefect,
              serve::FrameDefect::BadChecksum);
    EXPECT_GE(parser.stats().resyncEvents, 1u);
    EXPECT_GT(parser.stats().bytesSkipped, 0u);
}

TEST(ServeFrame, TruncatedTailIsDiagnosedAtFinish)
{
    std::vector<std::uint8_t> wire;
    std::vector<MemRecord> recs = someRecords(64);
    serve::appendRecordsFrames(wire, recs.data(), recs.size());
    wire.resize(wire.size() - 13); // cut mid-frame

    CollectSink sink;
    serve::FrameParser parser;
    parser.feed(wire.data(), wire.size(), sink);
    EXPECT_TRUE(parser.stats().clean()); // nothing wrong *yet*
    parser.finish(sink);
    EXPECT_EQ(parser.stats().firstDefect,
              serve::FrameDefect::TruncatedTail);
    EXPECT_FALSE(parser.sawEnd());
    EXPECT_TRUE(sink.records.empty());
}

namespace
{

/** What one feeding of a byte stream delivered. */
struct ParseResult
{
    std::vector<MemRecord> records;
    std::vector<std::string> hellos;
    int ends = 0;
    bool sawEnd = false;
    serve::FrameStats stats;
};

/** Parse @p wire fed in @p chunk-byte pieces (0 = all at once). */
ParseResult
parseInChunks(const std::vector<std::uint8_t> &wire, std::size_t chunk)
{
    CollectSink sink;
    serve::FrameParser parser;
    const std::size_t step = chunk == 0 ? wire.size() : chunk;
    for (std::size_t at = 0; at < wire.size(); at += step)
        parser.feed(wire.data() + at, std::min(step, wire.size() - at),
                    sink);
    parser.finish(sink);
    return {sink.records, sink.hellos, sink.ends, parser.sawEnd(),
            parser.stats()};
}

/**
 * The CCMF v2 test vector, computed from the docs/SERVING.md
 * definition by an independent implementation: hello "v2", and one
 * records frame carrying {pc 0x400123, addr 0x7fff0040, load,
 * dependsOnPrevLoad}.  The hello's 7-byte payload exercises the
 * zero-padded tail word.
 */
const std::vector<std::uint8_t> kHelloV2 = {
    0x43, 0x43, 0x4d, 0x46, 0x01, 0x00, 0x07, 0x00, 0xe5, 0xe7,
    0x98, 0xea, 0x02, 0x00, 0x00, 0x00, 0x02, 0x76, 0x32};
const std::vector<std::uint8_t> kOneRecordV2 = {
    0x43, 0x43, 0x4d, 0x46, 0x02, 0x00, 0x18, 0x00, 0xf0,
    0x64, 0xb1, 0xb8, 0x23, 0x01, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x40, 0x00, 0xff, 0x7f, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
/** A hello naming "v1" with version 1 and a valid v2 checksum. */
const std::vector<std::uint8_t> kHelloVersion1 = {
    0x43, 0x43, 0x4d, 0x46, 0x01, 0x00, 0x07, 0x00, 0x21, 0x6c,
    0xc5, 0x3f, 0x01, 0x00, 0x00, 0x00, 0x02, 0x76, 0x31};

} // namespace

TEST(ServeFrame, EncodingMatchesTheV2TestVector)
{
    std::vector<std::uint8_t> hello;
    serve::appendHelloFrame(hello, "v2");
    EXPECT_EQ(hello, kHelloV2);

    MemRecord r;
    r.pc = 0x400123;
    r.addr = 0x7fff0040;
    r.type = RecordType::Load;
    r.dependsOnPrevLoad = true;
    std::vector<std::uint8_t> one;
    serve::appendRecordsFrames(one, &r, 1);
    EXPECT_EQ(one, kOneRecordV2);

    std::vector<std::uint8_t> wire = kHelloV2;
    wire.insert(wire.end(), kOneRecordV2.begin(), kOneRecordV2.end());
    const ParseResult got = parseInChunks(wire, 0);
    EXPECT_TRUE(got.stats.clean());
    ASSERT_EQ(got.hellos, std::vector<std::string>{"v2"});
    ASSERT_EQ(got.records.size(), 1u);
    EXPECT_EQ(got.records[0].pc, r.pc);
    EXPECT_EQ(got.records[0].addr, r.addr);
    EXPECT_EQ(got.records[0].type, r.type);
    EXPECT_TRUE(got.records[0].dependsOnPrevLoad);
}

TEST(ServeFrame, HelloOfAnotherVersionIsBadHello)
{
    const ParseResult got = parseInChunks(kHelloVersion1, 0);
    EXPECT_TRUE(got.hellos.empty());
    EXPECT_EQ(got.stats.firstDefect, serve::FrameDefect::BadHello);
    EXPECT_EQ(got.stats.malformedFrames, 1u);
    EXPECT_EQ(got.stats.resyncEvents, 0u); // the checksum held
    EXPECT_EQ(got.stats.frames, 0u);
}

TEST(ServeFrame, EveryCheckedBitFlipIsADefect)
{
    std::vector<std::uint8_t> wire;
    const std::vector<MemRecord> recs =
        someRecords(serve::kMaxRecordsPerFrame);
    serve::appendRecordsFrames(wire, recs.data(), recs.size());
    ASSERT_EQ(wire.size(),
              serve::kFrameHeaderBytes + serve::kMaxFramePayload);

    // Checked bytes: header [4..7], then the payload.
    std::vector<std::size_t> checked = {4, 5, 6, 7};
    for (std::size_t i = serve::kFrameHeaderBytes; i < wire.size(); ++i)
        checked.push_back(i);
    std::size_t escaped = 0;
    for (const std::size_t at : checked) {
        for (int bit = 0; bit < 8; ++bit) {
            wire[at] ^= static_cast<std::uint8_t>(1u << bit);
            const ParseResult got = parseInChunks(wire, 0);
            if (got.stats.clean() || !got.records.empty())
                ++escaped;
            wire[at] ^= static_cast<std::uint8_t>(1u << bit);
        }
    }
    EXPECT_EQ(escaped, 0u);
    EXPECT_TRUE(parseInChunks(wire, 0).stats.clean());
}

TEST(ServeFrame, ParsingDoesNotDependOnHowBytesArrive)
{
    std::vector<std::uint8_t> wire;
    serve::appendHelloFrame(wire, "chunked");
    const std::vector<MemRecord> a = someRecords(300);
    serve::appendRecordsFrames(wire, a.data(), a.size());
    wire.insert(wire.end(), 41, 0xa5); // garbage between frames
    const std::vector<MemRecord> b = someRecords(40, 5);
    serve::appendRecordsFrames(wire, b.data(), b.size());
    const std::size_t damaged = wire.size();
    serve::appendRecordsFrames(wire, b.data(), b.size());
    wire[damaged + serve::kFrameHeaderBytes + 30] ^= 0x10; // bad sum
    std::vector<MemRecord> odd = someRecords(20, 9);
    odd[7].type = static_cast<RecordType>(7); // implausible record
    serve::appendRecordsFrames(wire, odd.data(), odd.size());
    serve::appendEndFrame(wire);
    const std::vector<MemRecord> c = someRecords(12, 3);
    serve::appendRecordsFrames(wire, c.data(), c.size());
    wire.resize(wire.size() - 5); // truncated tail

    const ParseResult whole = parseInChunks(wire, 0);
    // Every defect class above is seen, and the clean frames survive.
    EXPECT_EQ(whole.stats.firstDefect, serve::FrameDefect::BadMagic);
    EXPECT_EQ(whole.stats.resyncEvents, 2u);
    EXPECT_EQ(whole.stats.badRecords, 1u);
    EXPECT_EQ(whole.stats.malformedFrames, 1u); // the tail
    EXPECT_EQ(whole.records.size(), 300u + 40u + 19u);
    EXPECT_TRUE(whole.sawEnd);

    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        const ParseResult got = parseInChunks(wire, chunk);
        EXPECT_EQ(got.hellos, whole.hellos);
        EXPECT_EQ(got.ends, whole.ends);
        EXPECT_EQ(got.sawEnd, whole.sawEnd);
        ASSERT_EQ(got.records.size(), whole.records.size());
        for (std::size_t i = 0; i < got.records.size(); ++i) {
            EXPECT_EQ(got.records[i].pc, whole.records[i].pc);
            EXPECT_EQ(got.records[i].addr, whole.records[i].addr);
            EXPECT_EQ(got.records[i].type, whole.records[i].type);
            EXPECT_EQ(got.records[i].dependsOnPrevLoad,
                      whole.records[i].dependsOnPrevLoad);
        }
        const serve::FrameStats &g = got.stats, &w = whole.stats;
        EXPECT_EQ(g.frames, w.frames);
        EXPECT_EQ(g.records, w.records);
        EXPECT_EQ(g.helloFrames, w.helloFrames);
        EXPECT_EQ(g.endFrames, w.endFrames);
        EXPECT_EQ(g.malformedFrames, w.malformedFrames);
        EXPECT_EQ(g.resyncEvents, w.resyncEvents);
        EXPECT_EQ(g.bytesSkipped, w.bytesSkipped);
        EXPECT_EQ(g.badRecords, w.badRecords);
        EXPECT_EQ(g.firstDefect, w.firstDefect);
    }
}

// ---- Record queue --------------------------------------------------

TEST(ServeQueue, BlockPolicyIsLossless)
{
    serve::RecordQueue q(64, serve::OverflowPolicy::Block);
    const std::size_t total = 10'000;

    std::thread producer([&] {
        std::vector<MemRecord> recs = someRecords(128);
        std::size_t sent = 0;
        while (sent < total) {
            std::size_t n = std::min(recs.size(), total - sent);
            EXPECT_EQ(q.push(recs.data(), n), n);
            sent += n;
        }
        q.closeInput();
    });

    MemRecord buf[96];
    std::size_t got = 0, n = 0;
    while ((n = q.pop(buf, 96)) != 0)
        got += n;
    producer.join();

    EXPECT_EQ(got, total);
    serve::QueueStats st = q.stats();
    EXPECT_EQ(st.pushed, total);
    EXPECT_EQ(st.popped, total);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_LE(st.maxDepth, 64u);
}

TEST(ServeQueue, BlockKeepsRecordOrderAcrossWraps)
{
    // Odd push and pop sizes against a 64-record ring: every pop that
    // straddles the ring's end copies two runs, and the blocked
    // producer resumes in bulk; the consumer must see 0, 1, 2, ...
    serve::RecordQueue q(64, serve::OverflowPolicy::Block);
    const std::size_t total = 20'000;

    std::thread producer([&] {
        std::vector<MemRecord> recs(45);
        std::size_t sent = 0;
        while (sent < total) {
            const std::size_t n = std::min(recs.size(), total - sent);
            for (std::size_t i = 0; i < n; ++i)
                recs[i].addr = sent + i;
            EXPECT_EQ(q.push(recs.data(), n), n);
            sent += n;
        }
        q.closeInput();
    });

    MemRecord buf[37];
    std::size_t got = 0, n = 0, disorder = 0;
    while ((n = q.pop(buf, 37)) != 0) {
        for (std::size_t i = 0; i < n; ++i)
            disorder += buf[i].addr != got + i;
        got += n;
    }
    producer.join();

    EXPECT_EQ(got, total);
    EXPECT_EQ(disorder, 0u);
    EXPECT_EQ(q.stats().popped, total);
}

TEST(ServeQueue, ShedPolicyDropsOverflowAndCounts)
{
    serve::RecordQueue q(8, serve::OverflowPolicy::Shed);
    std::vector<MemRecord> recs = someRecords(32);
    EXPECT_EQ(q.push(recs.data(), recs.size()), 8u);
    q.closeInput();

    MemRecord buf[32];
    EXPECT_EQ(q.pop(buf, 32), 8u);
    EXPECT_EQ(q.pop(buf, 32), 0u); // drained + closed

    serve::QueueStats st = q.stats();
    EXPECT_EQ(st.pushed, 8u);
    EXPECT_EQ(st.shed, 24u);
}

TEST(ServeQueue, AbortUnblocksAWaitingConsumer)
{
    serve::RecordQueue q(8, serve::OverflowPolicy::Block);
    std::atomic<bool> popped{false};
    std::thread consumer([&] {
        MemRecord r;
        EXPECT_EQ(q.pop(&r, 1), 0u); // blocks until the abort
        popped = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(popped.load());
    q.abort();
    consumer.join();
    EXPECT_TRUE(popped.load());
    EXPECT_TRUE(q.aborted());
}

// ---- Queue interleaving races (tsan shakedown) ---------------------
//
// Each test forces one specific cross-thread interleaving the daemon
// depends on: a producer parked in push() must be released by
// abort()/closeInput() with a truthful accepted count, a parked
// consumer must be released by abort(), and the two policies must
// keep their invariants (Shed never blocks, Block never exceeds the
// capacity bound) while both sides hammer the lock.  All of them run
// under the tsan preset in CI.

TEST(ServeQueue, AbortReleasesABlockedProducer)
{
    serve::RecordQueue q(4, serve::OverflowPolicy::Block);
    std::vector<MemRecord> recs = someRecords(8);

    std::size_t accepted = 0;
    std::thread producer([&] {
        // Accepts 4, then parks in push() on the full ring.
        accepted = q.push(recs.data(), recs.size());
    });
    // The producer is provably mid-push once the first 4 records have
    // landed and nothing has drained them.
    waitFor([&] { return q.stats().pushed == 4; });
    q.abort();
    producer.join();

    EXPECT_EQ(accepted, 4u);
    EXPECT_TRUE(q.aborted());
    MemRecord buf[4];
    EXPECT_EQ(q.pop(buf, 4), 0u); // aborted queues deliver nothing
}

TEST(ServeQueue, CloseInputReleasesABlockedProducer)
{
    serve::RecordQueue q(4, serve::OverflowPolicy::Block);
    std::vector<MemRecord> recs = someRecords(8);

    std::size_t accepted = 0;
    std::thread producer(
        [&] { accepted = q.push(recs.data(), recs.size()); });
    waitFor([&] { return q.stats().pushed == 4; });
    q.closeInput();
    producer.join();

    // Unlike abort, closeInput keeps what was already accepted: the
    // consumer still drains the 4 in-flight records.
    EXPECT_EQ(accepted, 4u);
    MemRecord buf[8];
    EXPECT_EQ(q.pop(buf, 8), 4u);
    EXPECT_EQ(q.pop(buf, 8), 0u); // drained + closed
}

TEST(ServeQueue, AbortReleasesEveryBlockedConsumer)
{
    serve::RecordQueue q(8, serve::OverflowPolicy::Block);
    std::atomic<int> released{0};
    std::vector<std::thread> consumers;
    consumers.reserve(3);
    for (int i = 0; i < 3; ++i) {
        consumers.emplace_back([&] {
            MemRecord r;
            EXPECT_EQ(q.pop(&r, 1), 0u);
            ++released;
        });
    }
    // No producer exists, so every consumer is parked in pop().
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(released.load(), 0);
    q.abort();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(released.load(), 3);
}

TEST(ServeQueue, ShedNeverBlocksUnderConcurrentDrain)
{
    serve::RecordQueue q(8, serve::OverflowPolicy::Shed);
    const std::size_t batches = 200;
    std::vector<MemRecord> recs = someRecords(32);

    std::thread consumer([&] {
        MemRecord buf[16];
        while (q.pop(buf, 16) != 0) {
        }
    });
    // Every push must return immediately, full ring or not; with a
    // cap of 8 and batches of 32 the overflow is always shed.
    for (std::size_t i = 0; i < batches; ++i)
        q.push(recs.data(), recs.size());
    q.closeInput();
    consumer.join();

    serve::QueueStats st = q.stats();
    EXPECT_EQ(st.pushed + st.shed, batches * recs.size());
    EXPECT_EQ(st.popped, st.pushed);
    EXPECT_GT(st.shed, 0u);
    EXPECT_LE(st.maxDepth, 8u);
}

TEST(ServeQueue, BlockPolicyBoundsDepthUnderRacingPushPop)
{
    serve::RecordQueue q(4, serve::OverflowPolicy::Block);
    const std::size_t total = 4'000;
    std::vector<MemRecord> recs = someRecords(16);

    std::thread producer([&] {
        std::size_t sent = 0;
        while (sent < total) {
            std::size_t n = std::min(recs.size(), total - sent);
            EXPECT_EQ(q.push(recs.data(), n), n);
            sent += n;
        }
        q.closeInput();
    });

    MemRecord buf[3];
    std::size_t got = 0, n = 0;
    while ((n = q.pop(buf, 3)) != 0)
        got += n;
    producer.join();

    // The backpressure handshake is airtight: lossless, and the ring
    // never held more than its capacity.
    EXPECT_EQ(got, total);
    serve::QueueStats st = q.stats();
    EXPECT_EQ(st.pushed, total);
    EXPECT_EQ(st.popped, total);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.maxDepth, 4u);
}

TEST(ServeQueue, PolicyNamesRoundTrip)
{
    EXPECT_STREQ(serve::toString(serve::OverflowPolicy::Block),
                 "block");
    EXPECT_STREQ(serve::toString(serve::OverflowPolicy::Shed), "shed");
    auto p = serve::parseOverflowPolicy("shed");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value(), serve::OverflowPolicy::Shed);
    EXPECT_FALSE(serve::parseOverflowPolicy("drop-newest").ok());
}

// ---- Daemon configuration ------------------------------------------

TEST(ServeConfig, ParsesKeysCommentsAndBlankLines)
{
    auto cfg = serve::parseServeConfig("# serving config\n"
                                       "arch victim\n"
                                       "\n"
                                       "l1-kb 16\n"
                                       "queue-records 4096\n"
                                       "policy shed\n"
                                       "defect-budget 5\n"
                                       "window-every 10000\n");
    ASSERT_TRUE(cfg.ok()) << cfg.status().toString();
    EXPECT_EQ(cfg.value().arch, "victim");
    EXPECT_EQ(cfg.value().system.mem.l1Bytes, 16u * 1024);
    EXPECT_EQ(cfg.value().limits.queueRecords, 4096u);
    EXPECT_EQ(cfg.value().limits.policy, serve::OverflowPolicy::Shed);
    EXPECT_EQ(cfg.value().limits.defectBudget, 5u);
    EXPECT_EQ(cfg.value().limits.windowEvery, 10000u);
}

TEST(ServeConfig, RejectsUnknownKeysAndBadValues)
{
    EXPECT_FALSE(serve::parseServeConfig("l1-size 16\n").ok());
    EXPECT_FALSE(serve::parseServeConfig("arch ternary\n").ok());
    EXPECT_FALSE(serve::parseServeConfig("l1-kb sixteen\n").ok());
    EXPECT_FALSE(serve::parseServeConfig("policy maybe\n").ok());
    // The number rule: range-checked before the value is stored, so
    // nothing truncates into an unsigned or wraps at x1024.
    for (const char *text :
         {"l1-assoc 4294967298\n", "l1-kb 18014398509481985\n",
          "queue-records -1\n", "queue-records 18446744073709551616\n"}) {
        auto cfg = serve::parseServeConfig(text);
        ASSERT_FALSE(cfg.ok()) << text;
        EXPECT_EQ(cfg.status().code(), ErrorCode::BadConfig) << text;
    }
    Status s = serve::parseServeConfig("bogus 1\n").status();
    EXPECT_NE(s.message().find("bogus"), std::string::npos);
}

TEST(ServeConfig, RejectsGeometryTheSimulatorWouldFatalOn)
{
    // Numerically valid values that MemorySystem would fatal on at
    // stream start must be rejected at parse time, not accepted and
    // left to fail every subsequent stream.
    EXPECT_FALSE(serve::parseServeConfig("l1-assoc 0\n").ok());
    EXPECT_FALSE(serve::parseServeConfig("l1-kb 3\n").ok());
    EXPECT_FALSE(serve::parseServeConfig("l2-kb 7\n").ok());
    Status s = serve::parseServeConfig("l1-assoc 0\n").status();
    EXPECT_EQ(s.code(), ErrorCode::BadConfig);
    EXPECT_NE(s.message().find("invalid geometry"),
              std::string::npos);

    auto ok = serve::parseServeConfig("l1-kb 16\nl1-assoc 2\n");
    EXPECT_TRUE(ok.ok()) << ok.status().toString();
}

TEST(ServeConfig, LoadReportsMissingFileWithPathContext)
{
    auto cfg = serve::loadServeConfig(::testing::TempDir() +
                                      "ccm_no_such_config");
    ASSERT_FALSE(cfg.ok());
    EXPECT_NE(cfg.status().message().find("config file"),
              std::string::npos);
}

// ---- Stream pipeline: byte-identity with the batch path ------------

TEST(ServeStream, PipelineMatchesBatchRunExactly)
{
    const std::size_t refs = 20'000;
    auto batch_wl = makeWorkload("tomcatv", refs, 42);
    ASSERT_TRUE(batch_wl);
    RunOutput batch = runTiming(*batch_wl, baselineConfig());

    serve::StreamPipeline pipe(1, "t", baselineConfig(),
                               serve::StreamLimits{}, 1);
    pipe.start();
    auto stream_wl = makeWorkload("tomcatv", refs, 42);
    MemRecord buf[256];
    std::size_t n = 0;
    while ((n = stream_wl->nextBatch(buf, 256)) != 0)
        pipe.queue().push(buf, n);
    pipe.queue().closeInput();
    pipe.join();

    ASSERT_EQ(pipe.state(), serve::StreamState::Done);
    EXPECT_TRUE(pipe.status().isOk());

    // The determinism guarantee, literally: the streamed stats
    // serialize byte-for-byte identical to the batch run's.
    EXPECT_EQ(obs::memStatsToJson(pipe.output().mem).toString(),
              obs::memStatsToJson(batch.mem).toString());
    EXPECT_EQ(obs::simResultToJson(pipe.output().sim).toString(),
              obs::simResultToJson(batch.sim).toString());
    EXPECT_EQ(obs::setHistogramsToJson(pipe.output().heat).toString(),
              obs::setHistogramsToJson(batch.heat).toString());
}

TEST(ServeStream, FailWithIsFirstWinsAndFinal)
{
    serve::StreamPipeline pipe(2, "f", baselineConfig(),
                               serve::StreamLimits{}, 1);
    pipe.start();
    pipe.failWith(Status::corruptTrace("first reason"));
    pipe.failWith(Status::aborted("second reason"));
    pipe.queue().abort();
    pipe.join();

    EXPECT_EQ(pipe.state(), serve::StreamState::Failed);
    EXPECT_EQ(pipe.status().code(), ErrorCode::CorruptTrace);
    EXPECT_EQ(pipe.status().message(), "first reason");

    // After the final state, further failWith calls are no-ops.
    pipe.failWith(Status::internal("too late"));
    EXPECT_EQ(pipe.status().message(), "first reason");
}

TEST(ServeStream, FailedRunNeverBlocksAProducer)
{
    // A geometry the simulator rejects at start: the simulation
    // thread dies immediately, so nothing will ever pop the queue.
    SystemConfig bad = baselineConfig();
    bad.mem.l1Assoc = 3;

    serve::StreamLimits lim;
    lim.queueRecords = 16;
    lim.policy = serve::OverflowPolicy::Block;
    serve::StreamPipeline pipe(7, "doomed", bad, lim, 1);
    pipe.start();

    // Push far more than the queue holds.  Before runBody aborted the
    // queue on failure, this deadlocked in push() once the dead
    // queue filled — stranding the connection reader forever.
    std::vector<MemRecord> recs = someRecords(64);
    for (int i = 0; i < 16; ++i)
        pipe.queue().push(recs.data(), recs.size());
    pipe.queue().closeInput();
    pipe.join();

    EXPECT_EQ(pipe.state(), serve::StreamState::Failed);
    EXPECT_EQ(pipe.status().code(), ErrorCode::BadConfig);
    EXPECT_TRUE(pipe.queue().aborted());
}

// ---- Daemon end to end ---------------------------------------------

namespace
{

serve::ServeOptions
daemonOptions(const char *tag)
{
    serve::ServeOptions o;
    o.socketPath = sockPath(tag);
    o.controlPath = sockPath((std::string(tag) + "c").c_str());
    return o;
}

/** Stream workload @p wl cleanly into the daemon, return sent count. */
void
produceClean(const std::string &socket, const std::string &name,
             const std::string &wl, std::size_t refs,
             std::uint64_t seed)
{
    auto src = makeWorkload(wl, refs, seed);
    ASSERT_TRUE(src);
    auto client = serve::ServeClient::connect(socket, name);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    Status s = client.value().streamAll(*src);
    EXPECT_TRUE(s.isOk()) << s.toString();
}

/** A bare ingest connection that sends no hello; -1 on failure. */
int
rawConnect(const std::string &socket)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                             sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** True once the daemon closed @p fd's far end (EOF or reset). */
bool
peerClosed(int fd, int ms)
{
    pollfd pf{fd, POLLIN, 0};
    if (::poll(&pf, 1, ms) <= 0)
        return false;
    char byte;
    return ::recv(fd, &byte, 1, MSG_DONTWAIT) <= 0;
}

} // namespace

/**
 * The fault-isolation acceptance gate: eight concurrent streams, one
 * wire-corrupted and one cut mid-stream; the daemon serves the other
 * six to completion with stats byte-identical to batch runs of the
 * same traces, reports both failures per-stream via Status, and
 * drains cleanly.
 */
TEST(ServeDaemon, FaultIsolationAcrossEightConcurrentStreams)
{
    serve::ServeOptions o = daemonOptions("gate");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    const char *kWorkloads[6] = {"tomcatv", "gcc",      "swim",
                                 "go",      "compress", "wave5"};
    const std::size_t kRefs = 6000;

    std::vector<std::thread> producers;
    producers.reserve(8);
    for (int i = 0; i < 6; ++i) {
        producers.emplace_back([&, i] {
            produceClean(o.socketPath, std::string("clean-") +
                                           kWorkloads[i],
                         kWorkloads[i], kRefs, 42);
        });
    }
    // Producer 7: wire corruption (garbage past the defect budget).
    producers.emplace_back([&] {
        auto client =
            serve::ServeClient::connect(o.socketPath, "corrupt");
        ASSERT_TRUE(client.ok());
        std::vector<MemRecord> recs = someRecords(256);
        (void)client.value().sendRecords(recs.data(), recs.size());
        std::vector<std::uint8_t> junk(96, 0xa5);
        (void)client.value().sendRawBytes(junk.data(), junk.size());
        // The daemon cuts us after the defect; nothing more to send.
    });
    // Producer 8: crash mid-stream (no end frame).
    producers.emplace_back([&] {
        auto client =
            serve::ServeClient::connect(o.socketPath, "crash");
        ASSERT_TRUE(client.ok());
        std::vector<MemRecord> recs = someRecords(512, 3);
        (void)client.value().sendRecords(recs.data(), recs.size());
        client.value().closeAbrupt();
    });
    for (auto &t : producers)
        t.join();

    // Every stream retires: 6 done, 2 failed, none stuck.
    ASSERT_TRUE(waitFor([&] {
        return counter(daemon, "streams_done") == 6 &&
               counter(daemon, "streams_failed") == 2 &&
               daemon.activeStreams() == 0;
    })) << daemon.statsDocument().toString();

    JsonValue doc = daemon.statsDocument();
    Status valid = obs::validateStatsDoc(doc);
    EXPECT_TRUE(valid.isOk()) << valid.toString();
    EXPECT_EQ(doc.at("daemon").at("streams_total").asU64(), 8u);

    // Index the per-stream reports by name.
    std::map<std::string, const JsonValue *> byName;
    for (const JsonValue &s : doc.at("streams").elements())
        byName[s.at("name").asString()] = &s;
    ASSERT_EQ(byName.size(), 8u);

    // The six clean streams: Done, and byte-identical to batch runs.
    for (int i = 0; i < 6; ++i) {
        const std::string name =
            std::string("clean-") + kWorkloads[i];
        ASSERT_TRUE(byName.count(name)) << name;
        const JsonValue &s = *byName[name];
        EXPECT_EQ(s.at("state").asString(), "done") << name;
        auto wl = makeWorkload(kWorkloads[i], kRefs, 42);
        RunOutput batch = runTiming(*wl, baselineConfig());
        EXPECT_EQ(s.at("mem").toString(),
                  obs::memStatsToJson(batch.mem).toString())
            << name;
        EXPECT_EQ(s.at("sim").toString(),
                  obs::simResultToJson(batch.sim).toString())
            << name;
    }

    // The two faulty streams: Failed, with a Status explaining why.
    ASSERT_TRUE(byName.count("corrupt"));
    EXPECT_EQ(byName["corrupt"]->at("state").asString(), "failed");
    EXPECT_NE(byName["corrupt"]->at("error").asString().find(
                  "corrupt-trace"),
              std::string::npos);
    ASSERT_TRUE(byName.count("crash"));
    EXPECT_EQ(byName["crash"]->at("state").asString(), "failed");
    EXPECT_NE(byName["crash"]->at("error").asString().find(
                  "end frame"),
              std::string::npos);

    daemon.drainAndStop();
}

/**
 * A peer that never completes a hello is held to the daemon's defect
 * budget too: garbage, or a hello of another protocol version, gets
 * its connection closed instead of pinning a reader thread, while a
 * clean stream on another connection is served byte for byte.
 */
TEST(ServeDaemon, ConnectionWithoutHelloIsDroppedAtTheDefectBudget)
{
    serve::ServeOptions o = daemonOptions("nohello");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    const int garbage = rawConnect(o.socketPath);
    const int stale = rawConnect(o.socketPath);
    ASSERT_GE(garbage, 0);
    ASSERT_GE(stale, 0);
    const std::vector<std::uint8_t> junk(200, 0xa5);
    ASSERT_EQ(::send(garbage, junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    ASSERT_EQ(::send(stale, kHelloVersion1.data(), kHelloVersion1.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(kHelloVersion1.size()));

    const std::size_t kRefs = 6000;
    std::thread producer(
        [&] { produceClean(o.socketPath, "clean", "gcc", kRefs, 42); });
    EXPECT_TRUE(peerClosed(garbage, 5000));
    EXPECT_TRUE(peerClosed(stale, 5000));
    producer.join();
    ::close(garbage);
    ::close(stale);

    ASSERT_TRUE(waitFor([&] {
        return counter(daemon, "streams_done") == 1 &&
               daemon.activeStreams() == 0;
    })) << daemon.statsDocument().toString();
    JsonValue doc = daemon.statsDocument();
    EXPECT_EQ(doc.at("daemon").at("streams_total").asU64(), 1u);
    const JsonValue &s = doc.at("streams").elements().at(0);
    EXPECT_EQ(s.at("name").asString(), "clean");
    auto wl = makeWorkload("gcc", kRefs, 42);
    RunOutput batch = runTiming(*wl, baselineConfig());
    EXPECT_EQ(s.at("mem").toString(),
              obs::memStatsToJson(batch.mem).toString());
    EXPECT_EQ(s.at("sim").toString(),
              obs::simResultToJson(batch.sim).toString());
    daemon.drainAndStop();
}

TEST(ServeDaemon, SimulationFailureRetiresStreamAndStillDrains)
{
    // Inject a geometry that fails at simulation start directly into
    // the runtime (the config loader rejects such files now), standing
    // in for any mid-flight simulation failure.  The stream must
    // retire as Failed, release its admission slot, and never strand
    // the connection reader in a blocked push.
    serve::ServeOptions o = daemonOptions("sfl");
    o.runtime.system.mem.l1Assoc = 3;
    o.runtime.limits.queueRecords = 16;
    o.runtime.limits.policy = serve::OverflowPolicy::Block;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto client = serve::ServeClient::connect(o.socketPath, "doomed");
    ASSERT_TRUE(client.ok()) << client.status().toString();
    std::vector<MemRecord> recs = someRecords(256);
    for (int i = 0; i < 64; ++i) {
        // Keep feeding until the daemon cuts the connection; send
        // errors past that point are expected.
        if (!client.value().sendRecords(recs.data(), recs.size())
                 .isOk())
            break;
    }

    ASSERT_TRUE(waitFor([&] {
        return counter(daemon, "streams_failed") == 1 &&
               daemon.activeStreams() == 0;
    })) << daemon.statsDocument().toString();

    JsonValue doc = daemon.statsDocument();
    const std::string err =
        doc.at("streams").elements().at(0).at("error").asString();
    EXPECT_NE(err.find("bad-config"), std::string::npos) << err;

    daemon.drainAndStop(); // must not hang on the retired stream
}

TEST(ServeDaemon, RecordLevelFaultsAreServedNotRejected)
{
    // FaultInjectingSource produces structurally valid records; the
    // daemon must simulate them like any other trace (defect budgets
    // are about wire damage, not trace content).
    serve::ServeOptions o = daemonOptions("flt");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto base = makeWorkload("gcc", 5000, 9);
    FaultPlan plan;
    plan.seed = 11;
    plan.bitFlipRate = 0.01;
    plan.dropRate = 0.01;
    plan.duplicateRate = 0.01;
    FaultInjectingSource faulty(*base, plan);

    auto client = serve::ServeClient::connect(o.socketPath, "noisy");
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().streamAll(faulty).isOk());

    ASSERT_TRUE(
        waitFor([&] { return counter(daemon, "streams_done") == 1; }));
    JsonValue doc = daemon.statsDocument();
    EXPECT_EQ(doc.at("daemon").at("streams_failed").asU64(), 0u);
    EXPECT_EQ(doc.at("streams").elements().at(0).at("frames")
                  .at("malformed_frames").asU64(),
              0u);
    daemon.drainAndStop();
}

TEST(ServeDaemon, IdleStreamsAreReapedAfterTtl)
{
    serve::ServeOptions o = daemonOptions("ttl");
    o.idleTtlMs = 100;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto client = serve::ServeClient::connect(o.socketPath, "stalled");
    ASSERT_TRUE(client.ok());
    std::vector<MemRecord> recs = someRecords(64);
    ASSERT_TRUE(
        client.value().sendRecords(recs.data(), recs.size()).isOk());
    // ...and then the producer goes silent, connection still open.

    ASSERT_TRUE(waitFor(
        [&] { return counter(daemon, "streams_failed") == 1; }));
    JsonValue doc = daemon.statsDocument();
    const std::string err =
        doc.at("streams").elements().at(0).at("error").asString();
    EXPECT_NE(err.find("idle"), std::string::npos) << err;
    EXPECT_NE(err.find("reaped"), std::string::npos) << err;
    daemon.drainAndStop();
}

TEST(ServeDaemon, AdmissionRefusedBeyondMaxStreams)
{
    serve::ServeOptions o = daemonOptions("cap");
    o.maxStreams = 1;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto first = serve::ServeClient::connect(o.socketPath, "one");
    ASSERT_TRUE(first.ok());
    std::vector<MemRecord> recs = someRecords(16);
    ASSERT_TRUE(
        first.value().sendRecords(recs.data(), recs.size()).isOk());
    ASSERT_TRUE(waitFor([&] { return daemon.activeStreams() == 1; }));

    auto second = serve::ServeClient::connect(o.socketPath, "two");
    ASSERT_TRUE(second.ok()); // connect works; admission refuses
    ASSERT_TRUE(waitFor(
        [&] { return counter(daemon, "streams_refused") == 1; }));
    EXPECT_EQ(daemon.activeStreams(), 1u);

    ASSERT_TRUE(first.value().sendEnd().isOk());
    ASSERT_TRUE(waitFor(
        [&] { return counter(daemon, "streams_done") == 1; }));
    daemon.drainAndStop();
}

TEST(ServeDaemon, DrainCutsStragglersAndRefusesNewStreams)
{
    serve::ServeOptions o = daemonOptions("drn");
    o.drainGraceMs = 80;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto straggler =
        serve::ServeClient::connect(o.socketPath, "straggler");
    ASSERT_TRUE(straggler.ok());
    std::vector<MemRecord> recs = someRecords(64);
    ASSERT_TRUE(straggler.value()
                    .sendRecords(recs.data(), recs.size())
                    .isOk());
    ASSERT_TRUE(waitFor([&] { return daemon.activeStreams() == 1; }));

    daemon.requestDrain();
    EXPECT_TRUE(daemon.draining());
    daemon.drainAndStop(); // must not hang on the open connection

    JsonValue doc = daemon.statsDocument();
    EXPECT_EQ(doc.at("daemon").at("streams_failed").asU64(), 1u);
    EXPECT_NE(
        doc.at("streams").elements().at(0).at("error").asString().find("drain"),
        std::string::npos);
}

TEST(ServeDaemon, DrainRefusesLateProducers)
{
    serve::ServeOptions o = daemonOptions("late");
    o.drainGraceMs = 3000;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    // A straggler holds the 3 s grace period open.
    auto straggler =
        serve::ServeClient::connect(o.socketPath, "straggler");
    ASSERT_TRUE(straggler.ok());
    std::vector<MemRecord> recs = someRecords(64);
    ASSERT_TRUE(straggler.value()
                    .sendRecords(recs.data(), recs.size())
                    .isOk());
    ASSERT_TRUE(waitFor([&] { return daemon.activeStreams() == 1; }));

    using namespace std::chrono;
    const auto t0 = steady_clock::now();
    daemon.requestDrain();
    // A producer arriving during the grace is refused at connect, not
    // parked in the listen backlog until the grace runs out.
    auto late = serve::ServeClient::connect(o.socketPath, "late");
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), ErrorCode::Unavailable)
        << late.status().toString();
    EXPECT_LT(duration_cast<milliseconds>(steady_clock::now() - t0)
                  .count(),
              1000);

    // The straggler still finishes inside the grace, and its end
    // frame (not the deadline) is what ends the drain.
    ASSERT_TRUE(straggler.value().sendEnd().isOk());
    daemon.drainAndStop();
    EXPECT_LT(duration_cast<milliseconds>(steady_clock::now() - t0)
                  .count(),
              2000);
    EXPECT_EQ(counter(daemon, "streams_done"), 1u);
    EXPECT_EQ(counter(daemon, "streams_failed"), 0u);
}

TEST(ServeDaemon, ConcurrentConnectDisconnectChurn)
{
    serve::ServeOptions o = daemonOptions("chrn");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    // A mix of producers that finish, vanish, or never say hello,
    // connecting and disconnecting concurrently.
    std::vector<std::thread> churn;
    for (int i = 0; i < 4; ++i) {
        churn.emplace_back([&, i] {
            for (int round = 0; round < 3; ++round) {
                const std::string name = "churn-" +
                                         std::to_string(i) + "-" +
                                         std::to_string(round);
                auto c =
                    serve::ServeClient::connect(o.socketPath, name);
                if (!c.ok())
                    continue;
                std::vector<MemRecord> recs = someRecords(
                    128, static_cast<std::uint64_t>(i * 7 + round));
                (void)c.value().sendRecords(recs.data(), recs.size());
                if ((i + round) % 2 == 0)
                    (void)c.value().sendEnd();
                else
                    c.value().closeAbrupt();
            }
        });
    }
    for (auto &t : churn)
        t.join();

    ASSERT_TRUE(waitFor([&] {
        return counter(daemon, "streams_done") +
                   counter(daemon, "streams_failed") ==
               12;
    }));
    JsonValue doc = daemon.statsDocument();
    EXPECT_TRUE(obs::validateStatsDoc(doc).isOk());
    EXPECT_EQ(doc.at("daemon").at("streams_total").asU64(), 12u);
    daemon.drainAndStop();
}

TEST(ServeDaemon, ReloadSwapsConfigForNewStreamsOnly)
{
    const std::string cfg_path =
        ::testing::TempDir() + "ccm_reload.conf";
    {
        std::ofstream f(cfg_path);
        f << "arch baseline\n";
    }
    serve::ServeOptions o = daemonOptions("rld");
    o.configPath = cfg_path;
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());
    EXPECT_EQ(daemon.generation(), 1u);

    {
        std::ofstream f(cfg_path);
        f << "arch twoway\nqueue-records 2048\n";
    }
    ASSERT_TRUE(daemon.reload().isOk());
    EXPECT_EQ(daemon.generation(), 2u);

    produceClean(o.socketPath, "post-reload", "swim", 3000, 5);
    ASSERT_TRUE(
        waitFor([&] { return counter(daemon, "streams_done") == 1; }));
    JsonValue doc = daemon.statsDocument();
    EXPECT_EQ(doc.at("streams").elements().at(0).at("generation").asU64(), 2u);
    EXPECT_EQ(doc.at("streams").elements().at(0).at("queue")
                  .at("capacity").asU64(),
              2048u);

    // A broken file is rejected and the old config stays in force.
    {
        std::ofstream f(cfg_path);
        f << "arch nonsense\n";
    }
    Status bad = daemon.reload();
    ASSERT_FALSE(bad.isOk());
    EXPECT_NE(bad.message().find("previous configuration kept"),
              std::string::npos);
    EXPECT_EQ(daemon.generation(), 2u);

    // Same for a file whose geometry the simulator would fatal on:
    // it must never become the running configuration.
    {
        std::ofstream f(cfg_path);
        f << "arch twoway\nl1-assoc 0\n";
    }
    Status geom = daemon.reload();
    ASSERT_FALSE(geom.isOk());
    EXPECT_NE(geom.message().find("invalid geometry"),
              std::string::npos);
    EXPECT_EQ(daemon.generation(), 2u);
    daemon.drainAndStop();
}

TEST(ServeDaemon, ControlSocketAnswersCommands)
{
    serve::ServeOptions o = daemonOptions("ctl");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    auto pong = serve::controlRequest(o.controlPath, "ping");
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_EQ(pong.value(), "pong\n");

    auto stats = serve::controlRequest(o.controlPath, "stats");
    ASSERT_TRUE(stats.ok());
    auto parsed = JsonValue::parse(stats.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_TRUE(obs::validateStatsDoc(parsed.value()).isOk());
    EXPECT_EQ(parsed.value().at("kind").asString(), "serve");

    auto junk = serve::controlRequest(o.controlPath, "frobnicate");
    ASSERT_TRUE(junk.ok());
    EXPECT_EQ(junk.value().rfind("error:", 0), 0u);

    auto drain = serve::controlRequest(o.controlPath, "drain");
    ASSERT_TRUE(drain.ok());
    EXPECT_EQ(drain.value(), "ok\n");
    EXPECT_TRUE(daemon.draining());
    daemon.drainAndStop();
}

TEST(ServeClient, ConnectRetriesThenReportsAttempts)
{
    serve::ClientOptions copts;
    copts.connectRetries = 3;
    copts.backoffInitialMs = 1;
    auto c = serve::ServeClient::connect(
        ::testing::TempDir() + "ccm_nowhere.sock", "x", copts);
    ASSERT_FALSE(c.ok());
    EXPECT_NE(c.status().message().find("3 attempts"),
              std::string::npos)
        << c.status().toString();
}

TEST(ServeDaemon, MetricsCommandServesTelemetry)
{
    serve::ServeOptions o = daemonOptions("met");
    serve::ServeDaemon daemon(o);
    ASSERT_TRUE(daemon.start().isOk());

    // Three concurrent producers so the scraped instruments reflect
    // real multi-stream traffic (the acceptance shape).
    std::vector<std::thread> producers;
    for (int i = 0; i < 3; ++i) {
        producers.emplace_back([&o, i] {
            produceClean(o.socketPath,
                         "met-" + std::to_string(i), "go", 4000,
                         static_cast<std::uint64_t>(i) + 1);
        });
    }
    for (auto &t : producers)
        t.join();
    ASSERT_TRUE(waitFor([&] {
        return counter(daemon, "streams_done") >= 3;
    }));

    // Prometheus text exposition over the control socket.
    auto text = serve::controlRequest(o.controlPath, "metrics");
    ASSERT_TRUE(text.ok()) << text.status().toString();
    for (const char *needle :
         {"# TYPE ccm_serve_streams_admitted_total counter",
          "# TYPE ccm_serve_batch_classify_us histogram",
          "ccm_serve_batch_classify_us_bucket{le=\"+Inf\"}",
          "ccm_serve_frame_decode_us_count"})
        EXPECT_NE(text.value().find(needle), std::string::npos)
            << needle;

    // The JSON rendering is a valid kind:"metrics" ccm-stats doc.
    auto json = serve::controlRequest(o.controlPath, "metrics json");
    ASSERT_TRUE(json.ok()) << json.status().toString();
    auto parsed = JsonValue::parse(json.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc.at("kind").asString(), "metrics");
    Status valid = obs::validateStatsDoc(doc);
    EXPECT_TRUE(valid.isOk()) << valid.toString();

    // The serve instruments saw this test's traffic (the registry is
    // process-global, so compare with >=, not ==).
    std::uint64_t admitted = 0, classify_count = 0;
    for (const auto &m : doc.at("metrics").elements()) {
        const std::string &name = m.at("name").asString();
        if (name == "ccm_serve_streams_admitted_total")
            admitted = m.at("value").asU64();
        else if (name == "ccm_serve_batch_classify_us")
            classify_count = m.at("count").asU64();
    }
    EXPECT_GE(admitted, 3u);
    EXPECT_GE(classify_count, 1u);

    daemon.drainAndStop();
}
