/**
 * @file
 * Tests for the suite execution engine: the worker pool and the one
 * parallel-for over it, sequential-vs-parallel report equality,
 * failure isolation under concurrency, each row's interval windows,
 * and the classify suite through the same row loop.  This binary is
 * additionally run under ThreadSanitizer by tools/ci.sh (the "tsan"
 * preset), so the stress tests double as data-race detectors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "hierarchy/memsys.hh"
#include "obs/interval.hh"
#include "sim/parallel.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

// ---- ThreadPool ----------------------------------------------------

TEST(ThreadPool, ResolveJobCount)
{
    EXPECT_EQ(resolveJobCount(1), 1u);
    EXPECT_EQ(resolveJobCount(7), 7u);
    // 0 = hardware concurrency (with a nonzero fallback).
    EXPECT_GE(resolveJobCount(0), 1u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(8);
    EXPECT_EQ(pool.workers(), 8u);

    constexpr std::size_t n = 2000;
    std::vector<int> hits(n, 0);
    std::atomic<std::size_t> total{0};
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&hits, &total, i] {
            // Disjoint slots: no lock needed, and tsan verifies it.
            hits[i] += 1;
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    pool.waitIdle();
    EXPECT_EQ(total.load(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "task " << i;
}

TEST(ThreadPool, WaitIdleSeparatesWaves)
{
    // Two waves through one pool: waitIdle is a usable barrier, and
    // the second wave reads what the first wrote (publication).
    ThreadPool pool(4);
    constexpr std::size_t n = 512;
    std::vector<std::size_t> first(n, 0), second(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&first, i] { first[i] = i + 1; });
    pool.waitIdle();
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&first, &second, i] { second[i] = first[i] * 2; });
    pool.waitIdle();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(second[i], (i + 1) * 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<std::size_t> ran{0};
    {
        ThreadPool pool(2);
        for (std::size_t i = 0; i < 64; ++i)
            pool.submit([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        // No waitIdle: the destructor must drain, not drop.
    }
    EXPECT_EQ(ran.load(), 64u);
}

// ---- forEachIndex ---------------------------------------------------

TEST(ForEachIndex, RunsInlineInIndexOrderWhenOneWorker)
{
    // workers resolving to 1, or n <= 1, never leave the calling
    // thread, and the tasks run in index order.
    const std::thread::id caller = std::this_thread::get_id();
    struct Case
    {
        std::size_t n;
        std::size_t workers;
    };
    for (const Case c : {Case{5, 1}, Case{1, 8}, Case{1, 0}, Case{0, 8}}) {
        SCOPED_TRACE("n=" + std::to_string(c.n) +
                     " workers=" + std::to_string(c.workers));
        std::vector<std::size_t> order;
        forEachIndex(c.n, c.workers, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
        std::vector<std::size_t> want(c.n);
        for (std::size_t i = 0; i < c.n; ++i)
            want[i] = i;
        EXPECT_EQ(order, want);
    }
}

TEST(ForEachIndex, RunsEachIndexExactlyOnce)
{
    // Fewer tasks than workers, and more: every index once, and the
    // slots the tasks wrote are visible once forEachIndex returns.
    struct Case
    {
        std::size_t n;
        std::size_t workers;
    };
    for (const Case c : {Case{3, 8}, Case{500, 4}, Case{64, 0}}) {
        SCOPED_TRACE("n=" + std::to_string(c.n) +
                     " workers=" + std::to_string(c.workers));
        std::vector<int> hits(c.n, 0); // disjoint slots, tsan-checked
        std::atomic<std::size_t> total{0};
        forEachIndex(c.n, c.workers, [&](std::size_t i) {
            hits[i] += 1;
            total.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(total.load(), c.n);
        for (std::size_t i = 0; i < c.n; ++i)
            EXPECT_EQ(hits[i], 1) << "index " << i;
    }
}

// ---- Sequential vs parallel report equality ------------------------

void
expectRowsEqual(const SuiteRow &a, const SuiteRow &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.status.message(), b.status.message());
    EXPECT_EQ(a.out.sim.cycles, b.out.sim.cycles);
    EXPECT_EQ(a.out.sim.instructions, b.out.sim.instructions);
    EXPECT_EQ(a.out.sim.memRefs, b.out.sim.memRefs);
    MemStats::forEachField(
        [&](const char *name, Count MemStats::*f) {
            EXPECT_EQ(a.out.mem.*f, b.out.mem.*f)
                << a.workload << " counter " << name;
        });
    // Heat digests: the per-set histograms the heatmap section is
    // built from.
    EXPECT_EQ(a.out.heat.sets, b.out.heat.sets);
    EXPECT_EQ(a.out.heat.l1Misses, b.out.heat.l1Misses);
    EXPECT_EQ(a.out.heat.l1Evictions, b.out.heat.l1Evictions);
    EXPECT_EQ(a.out.heat.mctLookups, b.out.heat.mctLookups);
    EXPECT_EQ(a.out.heat.mctConflicts, b.out.heat.mctConflicts);
}

TEST(ParallelSuite, BitIdenticalToSequentialAcrossJobCounts)
{
    const std::vector<std::string> names = workloadNames();
    const SystemConfig cfg = ambConfig(true, true, true);
    auto factory = [](const std::string &name) {
        return makeWorkloadChecked(name, 3000, 7);
    };

    // The reference: a plain loop of timing runs, on this thread,
    // with no runner involved.
    SuiteReport sequential;
    for (const std::string &name : names) {
        auto trace = factory(name);
        ASSERT_TRUE(trace.ok()) << name;
        sequential.rows.push_back(
            {name, Status::ok(), runTiming(*trace.value(), cfg), 0.0});
    }

    for (std::size_t jobs : {1u, 2u, 8u}) {
        ParallelSuiteOptions opts;
        opts.jobs = jobs;
        SuiteReport parallel =
            runSuiteParallel(names, factory, cfg, opts);
        ASSERT_EQ(parallel.rows.size(), names.size())
            << "jobs=" << jobs;
        for (std::size_t i = 0; i < names.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " row " +
                         std::to_string(i));
            // Row order matches names regardless of completion order.
            EXPECT_EQ(parallel.rows[i].workload, names[i]);
            expectRowsEqual(sequential.rows[i], parallel.rows[i]);
        }
    }
}

TEST(ParallelSuite, RowsCarryWallTime)
{
    SuiteReport report = runSuiteParallel(
        {"go", "perl"},
        [](const std::string &name) {
            return makeWorkloadChecked(name, 4000, 3);
        },
        baselineConfig());
    double total = 0;
    for (const auto &row : report.rows) {
        EXPECT_GE(row.wallSeconds, 0.0);
        total += row.wallSeconds;
    }
    EXPECT_GT(total, 0.0);
}

// ---- Failure isolation under concurrency ---------------------------

TEST(ParallelSuite, ErroredRowsStayIsolatedUnderConcurrency)
{
    const std::vector<std::string> names = workloadNames();
    auto factory = [&](const std::string &name)
        -> Expected<std::unique_ptr<TraceSource>> {
        if (name == "gcc")
            return Status::corruptTrace("bad trace magic in gcc.bin");
        if (name == "swim")
            throw std::runtime_error("factory exploded");
        return makeWorkloadChecked(name, 2000, 3);
    };

    ParallelSuiteOptions opts;
    opts.jobs = 8;
    SuiteReport report =
        runSuiteParallel(names, factory, baselineConfig(), opts);

    ASSERT_EQ(report.rows.size(), names.size());
    EXPECT_EQ(report.failures(), 2u);
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(report.rows[i].workload, names[i]);

    const SuiteRow *corrupt = report.row("gcc");
    ASSERT_NE(corrupt, nullptr);
    EXPECT_EQ(corrupt->status.code(), ErrorCode::CorruptTrace);
    EXPECT_NE(corrupt->status.message().find("workload 'gcc'"),
              std::string::npos);

    const SuiteRow *thrown = report.row("swim");
    ASSERT_NE(thrown, nullptr);
    EXPECT_EQ(thrown->status.code(), ErrorCode::Internal);

    // Every other row completed despite its neighbours dying.
    for (const auto &row : report.rows) {
        if (row.workload == "gcc" || row.workload == "swim")
            continue;
        EXPECT_TRUE(row.ok()) << row.workload;
        EXPECT_GT(row.out.sim.cycles, 0u);
    }
}

// ---- Windows in the result ----------------------------------------

TEST(ParallelSuite, IntervalWindowsMatchASingleRun)
{
    // Each row samples its own run on its own worker: the windows a
    // row carries are those of a plain runTiming with a hand-attached
    // sampler, at every jobs value.  Under tsan (ci.sh) this also
    // checks that no sampler is shared across rows.
    const std::vector<std::string> names = workloadNames();
    const SystemConfig cfg = victimConfig(true, true);
    constexpr Count every = 700; // deliberately not a divisor
    auto factory = [](const std::string &name) {
        return makeWorkloadChecked(name, 3000, 7);
    };

    std::vector<std::vector<obs::IntervalSample>> want;
    for (const std::string &name : names) {
        auto trace = factory(name);
        ASSERT_TRUE(trace.ok()) << name;
        obs::IntervalSampler sampler(every);
        RunOutput r =
            runTiming(*trace.value(), cfg, [&](MemorySystem &mem) {
                mem.setAccessHook(
                    [&](const AccessResult &, const MemStats &st) {
                        sampler.onAccess(st);
                    });
            });
        sampler.finish(r.mem);
        ASSERT_FALSE(sampler.samples().empty()) << name;
        want.push_back(sampler.samples());
    }

    for (std::size_t jobs : {1u, 8u}) {
        ParallelSuiteOptions opts;
        opts.jobs = jobs;
        opts.interval = every;
        SuiteReport report = runSuiteParallel(names, factory, cfg, opts);
        ASSERT_EQ(report.rows.size(), names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " " +
                         names[i]);
            const RunOutput &out = report.rows[i].out;
            ASSERT_TRUE(report.rows[i].ok());
            EXPECT_EQ(out.interval, every);
            ASSERT_EQ(out.intervals.size(), want[i].size());
            for (std::size_t w = 0; w < want[i].size(); ++w) {
                EXPECT_EQ(out.intervals[w].firstRef, want[i][w].firstRef);
                EXPECT_EQ(out.intervals[w].lastRef, want[i][w].lastRef);
                MemStats::forEachField(
                    [&](const char *field, Count MemStats::*f) {
                        EXPECT_EQ(out.intervals[w].delta.*f,
                                  want[i][w].delta.*f)
                            << "window " << w << " counter " << field;
                    });
            }
        }
    }

    // No interval, no windows.
    SuiteReport plain = runSuiteParallel({"go"}, factory, cfg);
    ASSERT_TRUE(plain.allOk());
    EXPECT_TRUE(plain.rows[0].out.intervals.empty());
    EXPECT_EQ(plain.rows[0].out.interval, 0u);
}

// ---- The classify suite through the same row loop ------------------

TEST(ClassifySuite, ThrowingFactoryBecomesAnErroredRow)
{
    const std::vector<std::string> names = {"go", "swim", "gcc"};
    auto factory = [](const std::string &name)
        -> Expected<std::unique_ptr<TraceSource>> {
        if (name == "swim")
            throw std::runtime_error("factory exploded");
        if (name == "gcc")
            return Status::corruptTrace("bad trace magic in gcc.bin");
        return makeWorkloadChecked(name, 2000, 3);
    };
    ShardedClassifyConfig cfg;
    cfg.shards = 4;
    ClassifySuiteReport report = runClassifySuite(names, factory, cfg);

    ASSERT_EQ(report.rows.size(), names.size());
    EXPECT_EQ(report.failures(), 2u);
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(report.rows[i].workload, names[i]);
        EXPECT_GE(report.rows[i].wallSeconds, 0.0);
    }

    const auto *thrown = report.row("swim");
    ASSERT_NE(thrown, nullptr);
    EXPECT_EQ(thrown->status.code(), ErrorCode::Internal);
    EXPECT_NE(thrown->status.message().find("factory exploded"),
              std::string::npos);
    EXPECT_NE(thrown->status.message().find("workload 'swim'"),
              std::string::npos);

    const auto *corrupt = report.row("gcc");
    ASSERT_NE(corrupt, nullptr);
    EXPECT_EQ(corrupt->status.code(), ErrorCode::CorruptTrace);

    const auto *go = report.row("go");
    ASSERT_NE(go, nullptr);
    ASSERT_TRUE(go->ok());
    EXPECT_EQ(go->out.references, 2000u);
    EXPECT_EQ(go->out.shards, 4u);
}

} // namespace
} // namespace ccm
