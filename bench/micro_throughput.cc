/**
 * @file
 * Hot-path throughput benchmarks, in two layers:
 *
 *  - an explicit chrono-measured "hotpath" table covering the paths
 *    the simulator spends its time on (trace delivery unbatched vs
 *    batched, the flat fully-associative LRU, the end-to-end
 *    classification / sharded-classification / timing pipelines, and
 *    zero-copy mmap ingestion), emitted as BENCH_hotpath.json so runs
 *    can be compared against the committed baseline in
 *    bench/baselines/;
 *  - google-benchmark microbenchmarks for the individual structures
 *    (MCT classification, cache access, FaLru, assist buffer,
 *    memory-system access).
 *
 * `--hotpath-only` runs just the first layer (the CI perf smoke);
 * `--shards N` sets the shard count for classify_sharded_e2e; any
 * other flags are handed to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "assist/buffer.hh"
#include "bench_common.hh"
#include "cache/cache.hh"
#include "cache/fa_lru.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "cpu/core.hh"
#include "mct/classify_run.hh"
#include "mct/mct.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"
#include "trace/batch_reader.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

// ---- explicit hotpath table -----------------------------------------

/** Best-of-three wall rate, in million units per second. */
template <typename Fn>
double
bestRate(std::size_t units, Fn &&fn)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const double rate =
            secs > 0 ? static_cast<double>(units) / secs / 1e6 : 0.0;
        if (rate > best)
            best = rate;
    }
    return best;
}

/** Consume the whole trace through the record-at-a-time interface. */
double
measureDeliveryNext(VectorTrace &trace)
{
    return bestRate(trace.size(), [&] {
        trace.reset();
        MemRecord r;
        std::size_t sink = 0;
        while (trace.next(r))
            sink += r.isMem() ? 1 : 0;
        benchmark::DoNotOptimize(sink);
    });
}

/** Same stream, through the batched delivery path. */
double
measureDeliveryBatched(VectorTrace &trace)
{
    return bestRate(trace.size(), [&] {
        trace.reset();
        BatchReader reader(trace, maxTraceBatch);
        MemRecord r;
        std::size_t sink = 0;
        while (reader.next(r))
            sink += r.isMem() ? 1 : 0;
        benchmark::DoNotOptimize(sink);
    });
}

/** Mixed touch/insert at the oracle's capacity. */
double
measureFaLruMixed()
{
    constexpr std::size_t ops = 10'000'000;
    return bestRate(ops, [&] {
        FaLru fa(256);
        Pcg32 rng(1);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < ops; ++i) {
            LineAddr a{Addr(rng.next() & 0x3FF) * 64};
            if (fa.touch(a))
                ++hits;
            else
                fa.insert(a);
        }
        benchmark::DoNotOptimize(hits);
    });
}

/** The fig1/fig2 classification pipeline, end to end. */
double
measureClassifyE2e(VectorTrace &trace)
{
    return bestRate(trace.size(), [&] {
        ClassifyConfig cfg;
        ClassifyResult res = classifyRun(trace, cfg);
        benchmark::DoNotOptimize(res.misses);
    });
}

/** The fig3..7 timing pipeline, end to end. */
double
measureTimingE2e(VectorTrace &trace)
{
    const SystemConfig cfg = baselineConfig();
    return bestRate(trace.size(), [&] {
        RunOutput r = runTiming(trace, cfg);
        benchmark::DoNotOptimize(r.sim.cycles);
    });
}

/** The sharded (oracle-free) classification engine over a raw span. */
double
measureClassifySharded(VectorTrace &trace, unsigned shards)
{
    ShardedClassifyConfig cfg;
    cfg.shards = shards;
    return bestRate(trace.size(), [&] {
        ShardedClassifyResult res = runShardedClassify(
            trace.records().data(), trace.records().size(), cfg);
        benchmark::DoNotOptimize(res.misses);
    });
}

/** Zero-copy mapped ingestion: decode every record from the map. */
double
measureMmapIngest(VectorTrace &trace)
{
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string path = std::string(tmpdir != nullptr ? tmpdir
                                                           : "/tmp") +
                             "/ccm_bench_mmap.bin";
    {
        auto writer = TraceFileWriter::create(path);
        Status s = writer.ok() ? writer.value()->writeAll(trace).status()
                               : writer.status();
        if (s.isOk())
            s = writer.value()->close();
        trace.reset();
        if (!s.isOk()) {
            std::cerr << "mmap_ingest: " << s.toString() << "\n";
            std::remove(path.c_str());
            return 0.0;
        }
    }
    double rate = 0.0;
    {
        auto rd = TraceFileReader::open(path);
        if (!rd.ok()) {
            std::cerr << "mmap_ingest: " << rd.status().toString()
                      << "\n";
            std::remove(path.c_str());
            return 0.0;
        }
        // Open (and its validation scan) is a one-time cost per
        // trace; the steady-state rate is reset-and-consume.
        rate = bestRate(trace.size(), [&] {
            rd.value()->reset();
            std::vector<MemRecord> buf(maxTraceBatch);
            std::size_t n = 0, sink = 0;
            while ((n = rd.value()->nextBatch(buf.data(),
                                              buf.size())) > 0)
                sink += n;
            benchmark::DoNotOptimize(sink);
        });
    }
    std::remove(path.c_str());
    return rate;
}

int
runHotpathTable(unsigned shards)
{
    std::cout << "Hot-path throughput (best of 3, Mrec/s or Mops/s; "
              << "classify_sharded_e2e at --shards " << shards << ")\n"
              << "compare against bench/baselines/BENCH_hotpath.json"
              << "\n\n";

    VectorTrace delivery = bench::captureWorkload("compress",
                                                  2'000'000);
    VectorTrace classify = bench::captureWorkload("gcc", 1'000'000);
    VectorTrace timing = bench::captureWorkload("compress", 300'000);

    TextTable table({"case", "Mops", "measures"});

    auto row = [&](const std::string &label, double rate,
                   const std::string &what) {
        const std::size_t r = table.addRow(label);
        table.setNum(r, 1, rate, 1);
        table.set(r, 2, what);
    };

    row("trace_delivery_next", measureDeliveryNext(delivery),
        "records/s via per-record virtual next()");
    row("trace_delivery_batched", measureDeliveryBatched(delivery),
        "records/s via nextBatch through BatchReader");
    row("falru_mixed_256", measureFaLruMixed(),
        "mixed touch/insert ops/s at oracle capacity");
    row("classify_e2e", measureClassifyE2e(classify),
        "records/s through the full classification pipeline");
    row("classify_sharded_e2e",
        measureClassifySharded(classify, shards),
        "records/s through runShardedClassify (oracle-free)");
    row("mmap_ingest", measureMmapIngest(delivery),
        "records/s via zero-copy TraceFileReader batches");
    row("timing_e2e", measureTimingE2e(timing),
        "records/s through the full timing pipeline");

    table.print(std::cout);
    bench::emitBenchJson(
        "hotpath", table,
        "hot-path throughput; baseline for comparison lives in "
        "bench/baselines/BENCH_hotpath.json");
    return 0;
}

// ---- google-benchmark structure microbenchmarks ---------------------

void
BM_MctClassify(benchmark::State &state)
{
    MissClassificationTable mct(256,
                                static_cast<unsigned>(state.range(0)));
    for (std::size_t s = 0; s < 256; ++s)
        mct.recordEviction(SetIndex{s}, Tag{s * 31});
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mct.classify(SetIndex{rng.next() & 255},
                         Tag{rng.next()}));
    }
}
BENCHMARK(BM_MctClassify)->Arg(0)->Arg(8);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheGeometry g(16 * 1024, static_cast<unsigned>(state.range(0)),
                    64);
    Cache cache(g);
    Pcg32 rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() & 0xFFFFF) << 3;
        if (!cache.access(ByteAddr{a}, false))
            cache.fill(ByteAddr{a}, false, false);
    }
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);

void
BM_FaLruTouch(benchmark::State &state)
{
    FaLru fa(static_cast<std::size_t>(state.range(0)));
    Pcg32 rng(1);
    for (auto _ : state) {
        LineAddr a{rng.next() & 0x3FF};
        if (!fa.touch(a))
            fa.insert(a);
    }
}
BENCHMARK(BM_FaLruTouch)->Arg(8)->Arg(256);

void
BM_FaLruTouchOrInsert(benchmark::State &state)
{
    // The combined single-probe access the oracle uses.
    FaLru fa(static_cast<std::size_t>(state.range(0)));
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fa.touchOrInsert(LineAddr{rng.next() & 0x3FF}));
    }
}
BENCHMARK(BM_FaLruTouchOrInsert)->Arg(8)->Arg(256);

void
BM_TraceDelivery(benchmark::State &state)
{
    // range(0) = batch size; 1 approximates the historical
    // record-at-a-time pull, maxTraceBatch is the batched path.
    auto wl = makeWorkload("compress", 100'000, 42);
    VectorTrace trace = VectorTrace::capture(*wl);
    const auto batch = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        trace.reset();
        BatchReader reader(trace, batch);
        MemRecord r;
        std::size_t sink = 0;
        while (reader.next(r))
            sink += r.isMem() ? 1 : 0;
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TraceDelivery)
    ->Arg(1)
    ->Arg(static_cast<int>(maxTraceBatch));

void
BM_AssistBufferProbe(benchmark::State &state)
{
    AssistBuffer buf(static_cast<unsigned>(state.range(0)));
    for (unsigned i = 0; i < buf.entries(); ++i)
        buf.insert(LineAddr{i * 64}, BufSource::Victim, false,
                   false, 0);
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buf.find(LineAddr{(rng.next() & 31) * 64}));
    }
}
BENCHMARK(BM_AssistBufferProbe)->Arg(8)->Arg(16);

void
BM_MemSysAccess(benchmark::State &state)
{
    SystemConfig cfg = ambConfig(true, true, true);
    MemorySystem mem(cfg.mem);
    Pcg32 rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        Addr a = (rng.next() & 0x7FFFF) << 3;
        benchmark::DoNotOptimize(
            mem.access(ByteAddr{0}, ByteAddr{a}, false, now));
        now += 2;
    }
}
BENCHMARK(BM_MemSysAccess);

void
BM_EndToEndSim(benchmark::State &state)
{
    auto wl = makeWorkload("compress", 50'000, 42);
    VectorTrace trace = VectorTrace::capture(*wl);
    SystemConfig cfg = baselineConfig();
    for (auto _ : state) {
        RunOutput r = runTiming(trace, cfg);
        benchmark::DoNotOptimize(r.sim.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EndToEndSim)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    bool hotpath_only = false;
    unsigned shards = 1;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--hotpath-only") == 0) {
            hotpath_only = true;
        } else if (std::strcmp(argv[i], "--shards") == 0 &&
                   i + 1 < argc) {
            shards = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;

    const int rc = runHotpathTable(shards == 0 ? 1 : shards);
    if (rc != 0 || hotpath_only)
        return rc;

    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
