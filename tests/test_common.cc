/**
 * @file
 * Unit tests for src/common: bit utilities, the PCG32 generator, the
 * statistics helpers, the text-table formatter, the capability-
 * annotated synchronization layer (including the runtime lock-rank
 * checker), the signal-safe shutdown latch, and the seedable
 * spatial-sampling hash (uniformity property tests).  The sync and
 * shutdown tests run under the tsan preset in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

#include "common/addr_types.hh"
#include "common/bitutil.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/sample_hash.hh"
#include "common/shutdown.hh"
#include "common/stats.hh"
#include "common/sync.hh"
#include "common/table.hh"

namespace ccm
{
namespace
{

// ---- address-domain types -----------------------------------------

// The deliberate domain mix-up IS the test: every cross-domain
// conversion that used to be a silent off-by-offsetBits bug must now
// fail to compile.  is_convertible checks exactly "would an implicit
// pass compile", so these asserts are the negative compile tests.
static_assert(!std::is_convertible_v<ByteAddr, LineAddr>,
              "byte->line must go through CacheGeometry::lineOf");
static_assert(!std::is_convertible_v<LineAddr, ByteAddr>,
              "line->byte must be explicit (LineAddr::asByte)");
static_assert(!std::is_convertible_v<Tag, SetIndex>);
static_assert(!std::is_convertible_v<SetIndex, Tag>);
static_assert(!std::is_convertible_v<Tag, LineAddr>);
static_assert(!std::is_convertible_v<WayIndex, SetIndex>);
static_assert(!std::is_convertible_v<Addr, ByteAddr>,
              "raw integers never silently enter a domain");
static_assert(!std::is_convertible_v<Addr, Tag>);
static_assert(!std::is_convertible_v<ByteAddr, Addr>,
              "leaving a domain requires .value()");
// ...and the wrappers must stay free: same size as the raw integer,
// trivially copyable, so they vanish at -O1.
static_assert(sizeof(ByteAddr) == sizeof(Addr));
static_assert(sizeof(LineAddr) == sizeof(Addr));
static_assert(std::is_trivially_copyable_v<ByteAddr>);

TEST(AddrTypes, ValueRoundTrips)
{
    EXPECT_EQ(ByteAddr{0xDEAD}.value(), 0xDEADu);
    EXPECT_EQ(Tag{42}.value(), 42u);
    EXPECT_EQ(SetIndex{7}.value(), 7u);
    EXPECT_EQ(WayIndex{3}.value(), 3u);
}

TEST(AddrTypes, ComparisonsWithinDomain)
{
    EXPECT_EQ(ByteAddr{5}, ByteAddr{5});
    EXPECT_NE(ByteAddr{5}, ByteAddr{6});
    EXPECT_LT(LineAddr{0x40}, LineAddr{0x80});
    EXPECT_GE(Tag{9}, Tag{9});
}

TEST(AddrTypes, AdvancedByDisplacesBytes)
{
    EXPECT_EQ(ByteAddr{0x100}.advancedBy(0x40), ByteAddr{0x140});
}

TEST(AddrTypes, LineAsByteKeepsValue)
{
    EXPECT_EQ(LineAddr{0x12340}.asByte(), ByteAddr{0x12340});
}

TEST(AddrTypes, HashableInUnorderedContainers)
{
    EXPECT_EQ(std::hash<LineAddr>{}(LineAddr{0x40}),
              std::hash<LineAddr>{}(LineAddr{0x40}));
    EXPECT_EQ(std::hash<Tag>{}(Tag{1}), std::hash<Tag>{}(Tag{1}));
}

TEST(AddrTypes, InvalidSentinels)
{
    EXPECT_EQ(invalidByteAddr.value(), invalidAddr);
    EXPECT_EQ(invalidLineAddr.value(), invalidAddr);
    EXPECT_NE(invalidLineAddr, LineAddr{0});
}

// ---- bitutil ------------------------------------------------------

TEST(BitUtil, PowerOfTwoDetection)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(65));
    EXPECT_TRUE(isPowerOfTwo(std::uint64_t{1} << 63));
    EXPECT_FALSE(isPowerOfTwo((std::uint64_t{1} << 63) + 1));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(16 * 1024), 14u);
    EXPECT_EQ(floorLog2(std::uint64_t{1} << 40), 40u);
}

TEST(BitUtil, FloorLog2RoundsDown)
{
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(63), 5u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~std::uint64_t{0});
    EXPECT_EQ(lowMask(65), ~std::uint64_t{0});
}

TEST(BitUtil, BitField)
{
    EXPECT_EQ(bitField(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bitField(0xABCD, 4, 4), 0xCu);
    EXPECT_EQ(bitField(0xABCD, 8, 8), 0xABu);
    EXPECT_EQ(bitField(~std::uint64_t{0}, 10, 3), 0x7u);
}

// ---- Pcg32 --------------------------------------------------------

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(7, 1), b(7, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowStaysInRange)
{
    Pcg32 g(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(g.below(17), 17u);
}

TEST(Pcg32, BelowCoversRange)
{
    Pcg32 g(42);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[g.below(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 g(42);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = g.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, ChanceMatchesProbability)
{
    Pcg32 g(42);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += g.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// ---- stats --------------------------------------------------------

TEST(Stats, SafeRatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(safeRatio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(safeRatio(1, 2), 0.5);
}

TEST(Stats, PctScales)
{
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(0, 0), 0.0);
}

// ---- TextTable ----------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "v"});
    auto r = t.addRow("x");
    t.setNum(r, 1, 1.5, 1);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumericPrecision)
{
    TextTable t({"r", "v"});
    auto r = t.addRow("a");
    t.setNum(r, 1, 3.14159, 3);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("3.142"), std::string::npos);
}

TEST(TextTable, RowAndColCounts)
{
    TextTable t({"a", "b", "c"});
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.rows(), 0u);
    t.addRow("r1");
    t.addRow("r2");
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTableDeath, OutOfRangeCellPanics)
{
    TextTable t({"a", "b"});
    t.addRow("r");
    EXPECT_DEATH(t.set(0, 5, "x"), "out of range");
    EXPECT_DEATH(t.set(3, 0, "x"), "out of range");
}

// ---- capability-annotated sync layer -------------------------------

TEST(Sync, MutexLockProvidesMutualExclusion)
{
    Mutex mu;
    long counter = 0;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 10'000; ++i) {
                MutexLock lock(mu);
                ++counter;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(counter, 40'000);
}

TEST(Sync, TryLockReportsContention)
{
    Mutex mu;
    ASSERT_TRUE(mu.tryLock());
    std::thread other([&] { EXPECT_FALSE(mu.tryLock()); });
    other.join();
    mu.unlock();
    ASSERT_TRUE(mu.tryLock());
    mu.unlock();
}

TEST(Sync, CondVarHandsOffThroughPredicate)
{
    Mutex mu;
    CondVar cv;
    int stage = 0;

    std::thread consumer([&] {
        MutexLock lock(mu);
        cv.wait(mu, [&]() CCM_REQUIRES(mu) { return stage == 1; });
        stage = 2;
        cv.notifyAll();
    });

    {
        MutexLock lock(mu);
        stage = 1;
    }
    cv.notifyAll();
    {
        MutexLock lock(mu);
        cv.wait(mu, [&]() CCM_REQUIRES(mu) { return stage == 2; });
        EXPECT_EQ(stage, 2);
    }
    consumer.join();
}

TEST(Sync, CondVarWaitForTimesOutHonestly)
{
    Mutex mu;
    CondVar cv;
    MutexLock lock(mu);
    const bool satisfied =
        cv.waitFor(mu, std::chrono::milliseconds(5),
                   [&]() CCM_REQUIRES(mu) { return false; });
    EXPECT_FALSE(satisfied);
}

// ---- runtime lock-rank checker -------------------------------------

TEST(SyncLockRank, AscendingAcquisitionIsLegal)
{
    Mutex low(LockRank::ServeDaemon, "rank-test-low");
    Mutex high(LockRank::ServeQueue, "rank-test-high");
    MutexLock a(low);
    MutexLock b(high); // 10 -> 50: fine
    SUCCEED();
}

TEST(SyncLockRank, InversionIsCaughtDeterministically)
{
    if (!lockRankChecksEnabled())
        GTEST_SKIP() << "built without CCM_LOCK_RANK_CHECK";

    Mutex low(LockRank::ServeDaemon, "rank-test-low");
    Mutex high(LockRank::ServeQueue, "rank-test-high");

    MutexLock a(high);
    // The deliberate inversion: acquiring rank 10 while holding rank
    // 50 must die on the spot — no deadlock, no second thread needed.
    EXPECT_DEATH(MutexLock b(low),
                 "lock-rank inversion: acquiring 'rank-test-low'");

    // The checker fires before touching the lock, so the held-rank
    // state is intact and a legal follow-up still works.
    Mutex higher(LockRank::ThreadPool, "rank-test-higher");
    MutexLock c(higher);
}

TEST(SyncLockRank, SameRankReacquisitionIsAnInversion)
{
    if (!lockRankChecksEnabled())
        GTEST_SKIP() << "built without CCM_LOCK_RANK_CHECK";

    // Two locks of the same rank held together would allow an AB/BA
    // deadlock between two threads; the checker treats "equal" as
    // inverted, which also catches same-mutex self-deadlock.
    Mutex a(LockRank::ServeStream, "rank-test-a");
    Mutex b(LockRank::ServeStream, "rank-test-b");
    MutexLock la(a);
    EXPECT_DEATH(MutexLock lb(b),
                 "lock-rank inversion: acquiring 'rank-test-b'");
}

TEST(SyncLockRank, UnrankedMutexesAreExempt)
{
    Mutex ranked(LockRank::ThreadPool, "rank-test-ranked");
    Mutex unranked; // LockRank::Unranked
    MutexLock a(ranked);
    MutexLock b(unranked); // below rank 80, but exempt
    SUCCEED();
}

TEST(SyncLockRank, RanksAreHeldPerThread)
{
    if (!lockRankChecksEnabled())
        GTEST_SKIP() << "built without CCM_LOCK_RANK_CHECK";

    // One thread holding a high rank must not poison another thread's
    // acquisitions: the held-rank stack is thread-local.
    Mutex high(LockRank::ThreadPool, "rank-test-high");
    Mutex low(LockRank::ServeDaemon, "rank-test-low");
    MutexLock a(high);
    std::thread other([&] {
        MutexLock b(low);
        SUCCEED();
    });
    other.join();
}

// ---- shutdown latch -------------------------------------------------

TEST(ShutdownLatch, StopAndReloadLatchIndependently)
{
    ShutdownLatch latch;
    EXPECT_FALSE(latch.stopRequested());
    EXPECT_FALSE(latch.takeReloadRequest());

    latch.requestReload();
    EXPECT_FALSE(latch.stopRequested());
    EXPECT_TRUE(latch.takeReloadRequest());
    EXPECT_FALSE(latch.takeReloadRequest()); // consumed

    latch.requestStop();
    EXPECT_TRUE(latch.stopRequested());
}

TEST(ShutdownLatch, ConcurrentArmAndNotifyIsRaceFree)
{
    // Producers hammer requestStop/requestReload while a consumer
    // drains the wake pipe and consumes reload requests — the daemon
    // main loop under signal pressure, compressed.  TSan holds the
    // whistle; the assertions hold the counts.
    ShutdownLatch latch;
    const int reloads = 200;
    std::atomic<int> taken{0};

    std::thread stopper([&] {
        for (int i = 0; i < 100; ++i)
            latch.requestStop();
    });
    std::thread reloader([&] {
        for (int i = 0; i < reloads; ++i)
            latch.requestReload();
    });
    std::thread consumer([&] {
        // The reload flag stays latched until consumed, so at least
        // one take must succeed; drain until that and the stop have
        // both been observed.
        while (taken.load() == 0 || !latch.stopRequested()) {
            latch.drainWake();
            if (latch.takeReloadRequest())
                ++taken;
            std::this_thread::yield();
        }
    });
    stopper.join();
    reloader.join();
    consumer.join();

    EXPECT_TRUE(latch.stopRequested());
    EXPECT_GE(taken.load(), 1);
    EXPECT_LE(taken.load(), reloads);
}

TEST(ShutdownLatch, TakeReloadIsExactlyOncePerRequest)
{
    ShutdownLatch latch;
    latch.requestReload();

    std::atomic<int> winners{0};
    std::vector<std::thread> racers;
    racers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        racers.emplace_back([&] {
            if (latch.takeReloadRequest())
                ++winners;
        });
    }
    for (auto &th : racers)
        th.join();
    EXPECT_EQ(winners.load(), 1);
}

TEST(ShutdownLatch, SighupDuringSigtermDrainIsNotLost)
{
    // The daemon's shutdown sequence: SIGTERM latches the stop, the
    // main loop starts draining, and a SIGHUP lands in the middle of
    // the drain.  The reload must still be observed exactly once, the
    // stop must stay latched, and wakeFd() must stay readable after
    // drainWake() so every poller keeps waking up.
    ShutdownLatch latch;
    ASSERT_TRUE(
        latch.installSignalHandlers(SIGTERM, 0, SIGHUP).isOk());

    ASSERT_EQ(::raise(SIGTERM), 0); // synchronous on this thread
    EXPECT_TRUE(latch.stopRequested());
    latch.drainWake(); // mid-drain...

    ASSERT_EQ(::raise(SIGHUP), 0); // ...the reload arrives
    latch.drainWake();

    EXPECT_TRUE(latch.takeReloadRequest());
    EXPECT_FALSE(latch.takeReloadRequest());
    EXPECT_TRUE(latch.stopRequested());

    // A latched stop keeps the wake fd readable through any number of
    // drains (this is what lets late-joining pollers notice it).
    pollfd pf{};
    pf.fd = latch.wakeFd();
    pf.events = POLLIN;
    EXPECT_EQ(::poll(&pf, 1, 0), 1);
    EXPECT_NE(pf.revents & POLLIN, 0);
}

TEST(ShutdownLatch, SecondLatchCannotStealTheHandlers)
{
    ShutdownLatch first;
    ASSERT_TRUE(first.installSignalHandlers(SIGTERM).isOk());
    ShutdownLatch second;
    EXPECT_FALSE(second.installSignalHandlers(SIGTERM).isOk());
    // `second` must not have hijacked routing: SIGTERM still lands in
    // `first`.
    ASSERT_EQ(::raise(SIGTERM), 0);
    EXPECT_TRUE(first.stopRequested());
    EXPECT_FALSE(second.stopRequested());
}

} // namespace

// ---- Structured logging --------------------------------------------

TEST(Log, LevelNamesRoundTrip)
{
    for (LogLevel l : {LogLevel::Trace, LogLevel::Debug,
                       LogLevel::Info, LogLevel::Warn,
                       LogLevel::Error, LogLevel::Off}) {
        auto parsed = parseLogLevel(toString(l));
        ASSERT_TRUE(parsed.ok()) << toString(l);
        EXPECT_EQ(parsed.value(), l);
    }
    EXPECT_FALSE(parseLogLevel("loud").ok());
    EXPECT_FALSE(parseLogLevel("").ok());
    EXPECT_FALSE(parseLogLevel("INFO").ok()); // lower-case contract
}

TEST(Log, ThresholdGatesLevels)
{
    const LogLevel saved = logThreshold();
    setLogThreshold(LogLevel::Warn);
    EXPECT_FALSE(logEnabled(LogLevel::Trace));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    setLogThreshold(LogLevel::Off);
    EXPECT_FALSE(logEnabled(LogLevel::Error));
    // Off is a threshold, never a message level.
    EXPECT_FALSE(logEnabled(LogLevel::Off));
    setLogThreshold(saved);
}

TEST(Log, ThreadIdsAreDenseAndStable)
{
    const int mine = logThreadId();
    EXPECT_GE(mine, 0);
    EXPECT_EQ(logThreadId(), mine); // stable within a thread

    int other = -1;
    std::thread t([&other] { other = logThreadId(); });
    t.join();
    EXPECT_GE(other, 0);
    EXPECT_NE(other, mine);
}

TEST(Log, UptimeIsMonotonic)
{
    const double a = logUptimeSeconds();
    const double b = logUptimeSeconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}

// ---- command-line number rule -------------------------------------

TEST(Cli, MalformedNumbersAreBadConfigAndStoreNothing)
{
    for (const char *text :
         {"", "abc", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5"}) {
        std::uint64_t v = 7;
        Status s = parseNumber("--refs", text, v);
        EXPECT_EQ(s.code(), ErrorCode::BadConfig) << "'" << text << "'";
        EXPECT_NE(s.message().find("--refs"), std::string::npos);
        EXPECT_EQ(v, 7u) << "'" << text << "'";
    }
    std::uint64_t v = 7;
    EXPECT_TRUE(parseNumber("--refs", "0", v).isOk());
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseNumber("--refs", "007", v).isOk());
    EXPECT_EQ(v, 7u);
}

/** T's max parses to itself; @p over (max + 1) is rejected. */
template <typename T>
void
expectTakesMaxOnly(const std::string &over)
{
    const T max = std::numeric_limits<T>::max();
    T v{};
    EXPECT_TRUE(parseNumber("--n", std::to_string(max), v).isOk());
    EXPECT_EQ(v, max);
    EXPECT_EQ(parseNumber("--n", over, v).code(), ErrorCode::BadConfig)
        << over;
    EXPECT_EQ(v, max);
}

TEST(Cli, EachTypeTakesItsMaxAndRejectsOneMore)
{
    expectTakesMaxOnly<unsigned>("4294967296");
    expectTakesMaxOnly<int>("2147483648");
    expectTakesMaxOnly<std::int64_t>("9223372036854775808");
    expectTakesMaxOnly<std::uint64_t>("18446744073709551616");
    // Far past the range is an overflow, not a clamp.
    unsigned u = 0;
    EXPECT_FALSE(parseNumber("--n", "4294967298", u).isOk());
    EXPECT_EQ(u, 0u);
}

TEST(Cli, KbLimitKeepsTheByteCountFromWrapping)
{
    std::size_t kb = 0;
    ASSERT_TRUE(
        parseNumber("--l1-kb", std::to_string(kMaxKb), kb, kMaxKb).isOk());
    EXPECT_EQ(kb, kMaxKb);
    EXPECT_EQ(kb * 1024 / 1024, kb);
    EXPECT_FALSE(
        parseNumber("--l1-kb", std::to_string(kMaxKb + 1), kb, kMaxKb)
            .isOk());
    // 2^54 + 1: times 1024 this wraps to 1024 on a 64-bit size_t.
    EXPECT_FALSE(
        parseNumber("--l1-kb", "18014398509481985", kb, kMaxKb).isOk());
}

TEST(Cli, RatesAreOneWholeFiniteNumber)
{
    double r = 0.0;
    EXPECT_TRUE(parseRate("--rate", "0.01", r).isOk());
    EXPECT_DOUBLE_EQ(r, 0.01);
    EXPECT_TRUE(parseRate("--rate", "1e-3", r).isOk());
    EXPECT_DOUBLE_EQ(r, 0.001);
    for (const char *text :
         {"", "abc", "0.5x", " 0.5", "+0.5", "inf", "nan", "1e999"}) {
        r = 0.25;
        Status s = parseRate("--rate", text, r);
        EXPECT_EQ(s.code(), ErrorCode::BadConfig) << "'" << text << "'";
        EXPECT_EQ(r, 0.25) << "'" << text << "'";
    }
}

TEST(Cli, CursorTakesEachFlagsValueAndNamesTheFlag)
{
    std::vector<std::string> words = {"tool",  "--refs",  "12",
                                      "--arch", "victim", "--l1-kb",
                                      "18014398509481985", "--seed"};
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    ArgCursor args(static_cast<int>(argv.size()), argv.data());

    std::size_t refs = 0;
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.flag(), "--refs");
    EXPECT_TRUE(args.number(refs).isOk());
    EXPECT_EQ(refs, 12u);

    std::string arch;
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.value(arch).isOk());
    EXPECT_EQ(arch, "victim");

    std::size_t kb = 16;
    ASSERT_TRUE(args.next());
    Status s = args.number(kb, kMaxKb);
    EXPECT_EQ(s.code(), ErrorCode::BadConfig);
    EXPECT_NE(s.message().find("--l1-kb"), std::string::npos);
    EXPECT_EQ(kb, 16u);

    std::uint64_t seed = 42;
    ASSERT_TRUE(args.next());
    s = args.number(seed);
    EXPECT_EQ(s.code(), ErrorCode::BadConfig);
    EXPECT_EQ(s.message(), "--seed needs a value");
    EXPECT_FALSE(args.next());
}

// ---- sample hash / sampling predicate -----------------------------

TEST(SampleHash, DeterministicAcrossInstances)
{
    SampleHash a(9), b(9);
    for (std::uint64_t v = 0; v < 4096; ++v)
        EXPECT_EQ(a.mix(v * 64), b.mix(v * 64));
}

TEST(SampleHash, BucketsUniformOverStridedLines)
{
    // Workload generators emit line populations with power-of-two
    // strides; an identity (or weak) hash aliases whole strides into
    // a handful of buckets.  Property: for every stride, the bucket
    // histogram over 256 coarse bins passes a chi-square flatness
    // check (255 dof: mean 255, sigma ~22.6; 360 is > 4 sigma, and
    // the inputs are fixed so the test is deterministic).
    constexpr int kBins = 256;
    constexpr std::uint64_t kLines = 1 << 16;
    for (std::uint64_t stride : {std::uint64_t{1}, std::uint64_t{2},
                                 std::uint64_t{16},
                                 std::uint64_t{1024}}) {
        const auto pred = SamplingPredicate::make(1.0, 4).value();
        std::vector<std::uint64_t> bins(kBins, 0);
        for (std::uint64_t i = 0; i < kLines; ++i) {
            const auto b = pred.bucketOf(LineAddr(i * stride));
            ++bins[b * kBins / SamplingPredicate::kModulus];
        }
        const double expect =
            static_cast<double>(kLines) / kBins;
        double chi2 = 0.0;
        for (auto n : bins) {
            const double d = static_cast<double>(n) - expect;
            chi2 += d * d / expect;
        }
        EXPECT_LT(chi2, 360.0) << "stride " << stride;
    }
}

TEST(SamplingPredicate, SampledFractionTracksRate)
{
    // The admitted fraction of a large strided line population must
    // match the configured rate within binomial noise at every rate
    // the engine supports (0.1% .. 100%).
    constexpr std::uint64_t kLines = 1 << 18;
    for (double rate : {0.001, 0.01, 0.1, 0.5, 1.0}) {
        const auto pred = SamplingPredicate::make(rate, 42).value();
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < kLines; ++i)
            hits += pred.sampled(LineAddr(i * 8)) ? 1 : 0;
        const double got =
            static_cast<double>(hits) / static_cast<double>(kLines);
        // 5 sigma of binomial noise, floored at 10% relative.
        const double sigma =
            std::sqrt(rate * (1.0 - rate) /
                      static_cast<double>(kLines));
        const double tol = std::max(5.0 * sigma, 0.1 * rate);
        EXPECT_NEAR(got, rate, tol) << "rate " << rate;
        EXPECT_NEAR(pred.rate(), rate, 1.0 / (1 << 24));
    }
}

TEST(SamplingPredicate, SeedsSelectIndependentSampleSets)
{
    // Different seeds must pick statistically independent line sets:
    // the overlap of two rate-R samples is ~R^2 of the population,
    // not ~R (which a seed-insensitive hash would give).
    constexpr std::uint64_t kLines = 1 << 17;
    constexpr double kRate = 0.05;
    const auto a = SamplingPredicate::make(kRate, 1).value();
    const auto b = SamplingPredicate::make(kRate, 2).value();
    std::uint64_t both = 0, inA = 0;
    for (std::uint64_t i = 0; i < kLines; ++i) {
        const LineAddr line(i * 4);
        const bool sa = a.sampled(line);
        inA += sa ? 1 : 0;
        both += (sa && b.sampled(line)) ? 1 : 0;
    }
    const double expected = kRate * kRate * kLines; // ~328
    EXPECT_GT(static_cast<double>(both), expected * 0.5);
    EXPECT_LT(static_cast<double>(both), expected * 2.0);
    // And the overlap is far below the seed-insensitive outcome inA.
    EXPECT_LT(both * 4, inA);
}

TEST(SamplingPredicate, LoweringThresholdShrinksTheSampleSet)
{
    // SHARDS-adj correctness hinges on monotone eviction: after the
    // threshold drops, the surviving set is a strict subset (a line's
    // bucket is fixed, so no line can re-enter).  Raising is refused.
    constexpr std::uint64_t kLines = 1 << 15;
    auto pred = SamplingPredicate::make(0.2, 7).value();
    std::vector<bool> before(kLines);
    for (std::uint64_t i = 0; i < kLines; ++i)
        before[i] = pred.sampled(LineAddr(i));

    const auto origThr = pred.threshold();
    pred.lowerThreshold(origThr / 2);
    EXPECT_EQ(pred.threshold(), origThr / 2);
    for (std::uint64_t i = 0; i < kLines; ++i) {
        if (pred.sampled(LineAddr(i))) {
            EXPECT_TRUE(before[i]) << "line " << i << " re-entered";
        }
    }

    pred.lowerThreshold(origThr); // raise attempt: refused
    EXPECT_EQ(pred.threshold(), origThr / 2);
    pred.lowerThreshold(0); // zero would admit nothing: refused
    EXPECT_EQ(pred.threshold(), origThr / 2);
}

} // namespace ccm
