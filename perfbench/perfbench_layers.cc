/**
 * @file
 * perfbench_layers — the traced pass of the benchmark.  It runs the
 * three batch lanes in-process, calling each module's public
 * functions in the order the CLIs call them, with a span around every
 * call, and then climbs the layer ladder on one captured suite
 * workload.  Every figure is a median over kReps repetitions.
 *
 *   perfbench_layers --packed gcc.bin --delta gcc.d.bin --seed 7 \
 *       --suite-refs 1000000 --out layers.json [--spans spans.json]
 *
 * Lanes (each mirrors one CLI invocation of perfbench/run.py):
 *   classify-trace  openTraceMappedOrFile -> VectorTrace::capture ->
 *                   runShardedClassify(span) -> classifyDocument
 *   sample-plan     openTraceMappedOrFile -> capture -> buildMrc ->
 *                   recommendGeometry -> reconstructFromIntervals ->
 *                   sampleDocument
 *   timing-suite    runSuiteParallel -> suiteDocument
 *
 * The ladder rungs run on the same captured records, so adjacent
 * rungs subtract: generate -> deliver -> cache -> +MCT (K = 1 kernel)
 * -> +oracle -> +core (baseline) -> +victim buffer -> +AMB.
 *
 * Each lane also writes its document (layers-<lane>.json beside
 * --out) so the caller can check it against the CLI's.
 * Exit status 0 on success, 1 on usage errors, 2 on a failed call.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hh"
#include "mct/classify_run.hh"
#include "obs/sink.hh"
#include "sample/engine.hh"
#include "serve/frame.hh"
#include "serve/queue.hh"
#include "serve/stream.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/sharded.hh"
#include "spans.hh"
#include "trace/batch_reader.hh"
#include "trace/mmap_trace.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;
using obs::JsonValue;
using perfbench::Clock;
using perfbench::median;
using perfbench::Scoped;
using perfbench::secondsSince;

struct Options
{
    std::string packed;
    std::string delta;
    std::uint64_t seed = 42;
    std::size_t suiteRefs = 1'000'000;
    std::string out;
    std::string spans;
};

/** The flags each lane's CLI is run with by perfbench/run.py. */
constexpr unsigned kClassifyShards = 3;
constexpr double kSampleRate = 0.01;
constexpr std::size_t kSampleIntervals = 8;
constexpr std::size_t kSuiteJobs = 3;

constexpr int kReps = 3;
constexpr const char *kLadderWorkload = "gcc";

perfbench::SpanLog spans;
JsonValue metrics = JsonValue::object();
JsonValue lanes = JsonValue::object();

[[noreturn]] void
die(const Status &s)
{
    std::cerr << "perfbench_layers: " << s.toString() << "\n";
    std::exit(2);
}

void
metric(const std::string &name, double value)
{
    metrics.set(name, JsonValue::real(value));
}

double
mrecPerS(std::size_t records, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(records) / seconds / 1e6
                         : 0.0;
}

void
lane(const std::string &name, std::size_t records, double seconds,
     const std::string &document)
{
    JsonValue l = JsonValue::object();
    l.set("records", JsonValue::uint(records));
    l.set("seconds", JsonValue::real(seconds));
    l.set("mrec_per_s", JsonValue::real(mrecPerS(records, seconds)));
    l.set("document", JsonValue::str(document));
    lanes.set(name, std::move(l));
}

void
writeDoc(const std::string &path, const JsonValue &doc)
{
    Status s = obs::writeDocumentToFile(path, doc, obs::StatsFormat::Json);
    if (!s.isOk())
        die(s);
}

/** Where lane @p name writes its document: beside --out. */
std::string
docPath(const Options &o, const std::string &name)
{
    const std::size_t slash = o.out.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : o.out.substr(0, slash + 1);
    return dir + "layers-" + name + ".json";
}

std::unique_ptr<TraceSource>
openTrace(const std::string &path)
{
    auto src = openTraceMappedOrFile(path, TraceReadOptions{});
    if (!src.ok())
        die(src.status());
    return src.take();
}

/** Median of kReps timed calls of @p fn, as Mrec/s over @p records. */
template <typename Fn>
double
rung(const std::string &name, std::size_t records, Fn &&fn)
{
    for (int r = 0; r < kReps; ++r) {
        Scoped s(spans, name);
        fn();
    }
    return mrecPerS(records, spans.medianSeconds(name));
}

// ---- classify-trace --------------------------------------------------

/** Returns the captured trace for the kernel-scaling rungs. */
VectorTrace
classifyLane(const Options &o)
{
    ShardedClassifyConfig cfg;
    cfg.shards = kClassifyShards;
    VectorTrace captured;
    const std::string doc_path = docPath(o, "classify-trace");
    for (int r = 0; r < kReps; ++r) {
        captured = VectorTrace{};
        Scoped l(spans, "lane.classify-trace");
        std::unique_ptr<TraceSource> src;
        {
            Scoped s(spans, "trace.open");
            src = openTrace(o.packed);
        }
        {
            Scoped s(spans, "trace.capture");
            captured = VectorTrace::capture(*src);
        }
        ShardedClassifyResult res;
        {
            Scoped s(spans, "sim.kernel");
            res = runShardedClassify(captured.records().data(),
                                     captured.size(), cfg);
        }
        Scoped s(spans, "obs.document.classify");
        JsonValue doc = obs::classifyDocument(src->name(), res);
        doc.set("arch", JsonValue::str("baseline"));
        writeDoc(doc_path, doc);
    }
    lane("classify-trace", captured.size(),
         spans.medianSeconds("lane.classify-trace"), doc_path);
    metric("trace.open_s", spans.medianSeconds("trace.open"));
    metric("trace.capture_s", spans.medianSeconds("trace.capture"));
    return captured;
}

void
kernelScaling(const Options &o, const VectorTrace &captured)
{
    ShardedClassifyConfig k1;
    k1.shards = 1;
    const double k1_rate =
        rung("sim.kernel_k1", captured.size(), [&] {
            runShardedClassify(captured.records().data(),
                               captured.size(), k1);
        });
    const double k_rate =
        mrecPerS(captured.size(), spans.medianSeconds("sim.kernel"));
    metric("sim.kernel_k1_mrec_per_s", k1_rate);
    metric("sim.kernel_mrec_per_s", k_rate);
    metric("sim.shard_speedup", k1_rate > 0.0 ? k_rate / k1_rate : 0.0);
}

// ---- sample-plan -----------------------------------------------------

/**
 * ccm-sample's configuration for `--rate 0.01 --intervals 8`, at the
 * CLI's default sampling seed (run.py does not pass --seed to it).
 */
sample::SampleRunConfig
sampleConfig()
{
    constexpr std::uint64_t seed = 42;
    sample::SampleRunConfig scfg;
    scfg.mrc.rate = kSampleRate;
    scfg.mrc.seed = seed;
    scfg.mrc.variant = sample::ShardsVariant::FixedRate;
    scfg.mrc.maxSampledLines = 8192;
    scfg.mrc.rateCorrection = true;
    scfg.mrc.windowRefs = 0;
    scfg.intervals = kSampleIntervals;
    scfg.interval.warmupRefs = 16 * 1024;
    scfg.interval.seed = seed;
    scfg.classify.cacheBytes = 16 * 1024;
    scfg.classify.assoc = 1;
    scfg.classify.mctDepth = 1;
    scfg.classify.mctTagBits = 0;
    return scfg;
}

void
sampleLane(const Options &o)
{
    const sample::SampleRunConfig scfg = sampleConfig();
    const std::string doc_path = docPath(o, "sample-plan");
    VectorTrace captured;
    sample::SampleReport rep;
    for (int r = 0; r < kReps; ++r) {
        captured = VectorTrace{};
        Scoped l(spans, "lane.sample-plan");
        std::unique_ptr<TraceSource> src;
        {
            Scoped s(spans, "trace.open_delta");
            src = openTrace(o.delta);
        }
        {
            Scoped s(spans, "trace.capture_delta");
            captured = VectorTrace::capture(*src);
        }
        const MemRecord *recs = captured.records().data();
        const std::size_t n = captured.size();

        // runSampleAnalysis's steps, one span each.
        rep = sample::SampleReport{};
        const auto t0 = Clock::now();
        sample::MrcConfig mcfg = scfg.mrc;
        Count mem_refs = 0;
        for (std::size_t i = 0; i < n; ++i)
            mem_refs += recs[i].isMem() ? 1 : 0;
        mcfg.windowRefs = std::max<Count>(4096, mem_refs / 32);
        {
            Scoped s(spans, "sample.mrc");
            auto mrc = sample::buildMrc(recs, n, mcfg);
            if (!mrc.ok())
                die(mrc.status());
            rep.mrc = mrc.take();
        }
        {
            Scoped s(spans, "sample.recommend");
            rep.recommendation = sample::recommendGeometry(
                rep.mrc, scfg.classify.cacheBytes);
        }
        {
            Scoped s(spans, "sample.intervals");
            sample::IntervalConfig icfg = scfg.interval;
            icfg.k = scfg.intervals;
            auto ivl = sample::reconstructFromIntervals(
                recs, n, rep.mrc, scfg.classify, icfg);
            if (!ivl.ok())
                die(ivl.status());
            rep.intervals = ivl.take();
            rep.hasIntervals = true;
        }
        rep.wallSecondsSampled = secondsSince(t0);
        Scoped s(spans, "obs.document.sample");
        writeDoc(doc_path, obs::sampleDocument(src->name(), rep));
    }
    lane("sample-plan", captured.size(),
         spans.medianSeconds("lane.sample-plan"), doc_path);

    const double total = static_cast<double>(rep.mrc.totalRefs);
    metric("sample.mrc_s", spans.medianSeconds("sample.mrc"));
    metric("sample.sampled_ref_ratio",
           total > 0 ? static_cast<double>(rep.mrc.sampledRefs) / total
                     : 0.0);
    metric("sample.intervals_s", spans.medianSeconds("sample.intervals"));
    metric("sample.replayed_ref_ratio",
           total > 0
               ? static_cast<double>(rep.intervals.replayedRefs) / total
               : 0.0);
    metric("sample.recommend_s", spans.medianSeconds("sample.recommend"));

    // Accuracy guards: the engine's own rate-1.0 MRC and exact
    // classify references, run once.
    sample::SampleRunConfig exact = scfg;
    exact.compareExact = true;
    Scoped s(spans, "sample.exact_references");
    auto checked = sample::runSampleAnalysis(captured.records().data(),
                                             captured.size(), exact);
    if (!checked.ok())
        die(checked.status());
    metric("sample.mrc_mae", checked.value().mrcMae);
    metric("sample.stat_err_pct", checked.value().maxStatRelError * 100.0);
}

// ---- timing-suite ----------------------------------------------------

/** ccm-sim's configuration for `--arch amb --victim --prefetch --exclude`. */
SystemConfig
suiteConfig()
{
    SystemConfig cfg = ambConfig(true, true, true);
    cfg.mem.l1Bytes = 16 * 1024;
    cfg.mem.l1Assoc = 1;
    cfg.mem.l2Bytes = 1024 * 1024;
    cfg.mem.bufEntries = 8;
    cfg.mem.mctTagBits = 0;
    return cfg;
}

void
suiteLane(const Options &o)
{
    const SystemConfig cfg = suiteConfig();
    const auto factory = [&o](const std::string &name) {
        return makeWorkloadChecked(name, o.suiteRefs, o.seed);
    };
    ParallelSuiteOptions popts;
    popts.jobs = kSuiteJobs;
    const std::string doc_path = docPath(o, "timing-suite");

    SuiteReport report;
    std::vector<double> busy;
    for (int r = 0; r < kReps; ++r) {
        Scoped l(spans, "lane.timing-suite");
        const auto t0 = Clock::now();
        {
            Scoped s(spans, "sim.suite");
            report = runSuiteParallel(workloadNames(), factory, cfg,
                                      popts);
        }
        const double wall = secondsSince(t0);
        double rows_s = 0.0;
        for (const SuiteRow &row : report.rows)
            rows_s += row.wallSeconds;
        busy.push_back(rows_s / (static_cast<double>(kSuiteJobs) * wall));
        Scoped s(spans, "obs.document.suite");
        JsonValue doc = obs::suiteDocument(report);
        doc.set("arch", JsonValue::str("amb"));
        writeDoc(doc_path, doc);
    }
    if (!report.allOk())
        die(Status::internal("timing suite: ", report.failures(),
                             " rows failed"));

    std::vector<double> row_s;
    Count records = 0, cycles = 0, l1_misses = 0, l2_misses = 0;
    Count mshr_stall = 0, conflicts = 0, accesses = 0, buf_hits = 0;
    Count pref_issued = 0, pref_useful = 0, excluded = 0;
    for (const SuiteRow &row : report.rows) {
        row_s.push_back(row.wallSeconds);
        const MemStats &m = row.out.mem;
        records += row.out.sim.instructions;
        cycles += row.out.sim.cycles;
        l1_misses += m.l1Misses;
        l2_misses += m.l2Misses;
        mshr_stall += m.mshrStallCycles;
        conflicts += m.conflictMisses;
        accesses += m.accesses;
        buf_hits += m.bufHits();
        pref_issued += m.prefIssued;
        pref_useful += m.prefUseful;
        excluded += m.excluded;
    }
    lane("timing-suite", records, spans.medianSeconds("lane.timing-suite"),
         doc_path);
    metric("sim.row_s_median", median(row_s));
    metric("sim.row_s_max", *std::max_element(row_s.begin(), row_s.end()));
    metric("sim.pool_busy_ratio", median(busy));

    auto ratio = [](Count a, Count b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
    };
    metric("cpu.sim_cycles", static_cast<double>(cycles));
    metric("cpu.ipc", ratio(records, cycles));
    metric("hierarchy.l1_misses", static_cast<double>(l1_misses));
    metric("hierarchy.l2_misses", static_cast<double>(l2_misses));
    metric("hierarchy.mshr_stall_cycles", static_cast<double>(mshr_stall));
    metric("mct.conflict_share", ratio(conflicts, l1_misses));
    metric("assist.buf_hit_rate", ratio(buf_hits, accesses));
    metric("prefetch.accuracy", ratio(pref_useful, pref_issued));
    metric("exclude.excluded_share", ratio(excluded, l1_misses));
}

// ---- layer ladder ----------------------------------------------------

/** Returns the captured ladder workload for the serve micro rungs. */
VectorTrace
ladder(const Options &o)
{
    auto make = [&o] {
        auto wl = makeWorkloadChecked(kLadderWorkload, o.suiteRefs,
                                      o.seed);
        if (!wl.ok())
            die(wl.status());
        return wl.take();
    };
    VectorTrace trace = VectorTrace::capture(*make());
    const std::size_t n = trace.size();
    const MemRecord *recs = trace.records().data();
    volatile std::size_t sink = 0;

    metric("workloads.gen_mrec_per_s",
           rung("ladder.generate", n, [&] {
               auto wl = make();
               std::vector<MemRecord> buf(maxTraceBatch);
               std::size_t got = 0, k = 0;
               while ((k = wl->nextBatch(buf.data(), buf.size())) > 0)
                   got += k;
               sink = got;
           }));
    metric("trace.deliver_mrec_per_s",
           rung("ladder.deliver", n, [&] {
               trace.reset();
               BatchReader reader(trace);
               MemRecord r;
               std::size_t mem = 0;
               while (reader.next(r))
                   mem += r.isMem() ? 1 : 0;
               sink = mem;
           }));
    metric("cache.mrec_per_s", rung("ladder.cache", n, [&] {
               const ShardedClassifyConfig geom;
               Cache cache(CacheGeometry(geom.cacheBytes, geom.assoc,
                                         geom.lineBytes));
               for (std::size_t i = 0; i < n; ++i) {
                   if (!recs[i].isMem())
                       continue;
                   const ByteAddr a = recs[i].dataAddr();
                   if (!cache.access(a, recs[i].isStore()))
                       cache.fill(a, false, recs[i].isStore());
               }
               sink = cache.misses();
           }));
    metric("mct.mrec_per_s", rung("ladder.mct", n, [&] {
               ShardedClassifyConfig k1;
               k1.shards = 1;
               sink = runShardedClassify(recs, n, k1).misses;
           }));
    metric("mct.oracle_mrec_per_s", rung("ladder.oracle", n, [&] {
               sink = classifyRun(trace, ClassifyConfig{}).misses;
           }));
    const auto timing = [&](const char *name, const SystemConfig &cfg) {
        return rung(name, n, [&] {
            sink = runTiming(trace, cfg).sim.cycles;
        });
    };
    metric("cpu.timing_baseline_mrec_per_s",
           timing("ladder.timing_baseline", baselineConfig()));
    metric("assist.timing_victim_mrec_per_s",
           timing("ladder.timing_victim", victimConfig(false, false)));
    metric("assist.timing_amb_mrec_per_s",
           timing("ladder.timing_amb", ambConfig(true, true, true)));
    return trace;
}

// ---- serve frame + queue ---------------------------------------------

struct CountingSink final : serve::FrameSink
{
    std::size_t records = 0;
    void onHello(std::uint32_t, const std::string &) override {}
    void onRecords(const MemRecord *, std::size_t n) override
    {
        records += n;
    }
    void onEnd() override {}
};

void
serveRungs(const Options &o, const VectorTrace &trace)
{
    const std::size_t n = trace.size();
    const MemRecord *recs = trace.records().data();

    std::vector<std::uint8_t> wire;
    serve::appendHelloFrame(wire, "perfbench");
    serve::appendRecordsFrames(wire, recs, n);
    serve::appendEndFrame(wire);
    // The daemon's reader hands the parser 64 KiB receive buffers.
    constexpr std::size_t kRecvBytes = 64 * 1024;
    metric("serve.frame_parse_mrec_per_s",
           rung("serve.frame_parse", n, [&] {
               serve::FrameParser parser;
               CountingSink sink;
               for (std::size_t off = 0; off < wire.size();
                    off += kRecvBytes)
                   parser.feed(wire.data() + off,
                               std::min(kRecvBytes, wire.size() - off),
                               sink);
               parser.finish(sink);
               if (sink.records != n)
                   die(Status::internal("frame parse lost records"));
           }));

    // Producer and consumer threads, as the daemon's reader and
    // simulation threads use the queue, at its default capacity.
    const serve::StreamLimits limits;
    metric("serve.queue_mrec_per_s",
           rung("serve.queue", n, [&] {
               serve::RecordQueue q(limits.queueRecords, limits.policy);
               std::thread producer([&] {
                   for (std::size_t off = 0; off < n;
                        off += serve::kMaxRecordsPerFrame)
                       q.push(recs + off,
                              std::min(serve::kMaxRecordsPerFrame,
                                       n - off));
                   q.closeInput();
               });
               std::vector<MemRecord> buf(maxTraceBatch);
               std::size_t got = 0, k = 0;
               while ((k = q.pop(buf.data(), buf.size())) > 0)
                   got += k;
               producer.join();
               if (got != n)
                   die(Status::internal("queue lost records"));
           }));
}

void
usage()
{
    std::cout << "usage: perfbench_layers --packed FILE --delta FILE "
                 "--out FILE [--seed N] [--suite-refs N]\n"
                 "                        [--spans FILE]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (a == "--packed")
            o.packed = val();
        else if (a == "--delta")
            o.delta = val();
        else if (a == "--seed")
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--suite-refs")
            o.suiteRefs = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--out")
            o.out = val();
        else if (a == "--spans")
            o.spans = val();
        else {
            usage();
            return 1;
        }
    }
    if (o.packed.empty() || o.delta.empty() || o.out.empty()) {
        usage();
        return 1;
    }

    kernelScaling(o, classifyLane(o));
    sampleLane(o);
    suiteLane(o);
    metric("obs.document_s",
           spans.medianSeconds("obs.document.classify") +
               spans.medianSeconds("obs.document.sample") +
               spans.medianSeconds("obs.document.suite"));
    const VectorTrace ladder_trace = ladder(o);
    serveRungs(o, ladder_trace);

    JsonValue out = JsonValue::object();
    out.set("metrics", std::move(metrics));
    out.set("lanes", std::move(lanes));
    writeDoc(o.out, out);
    if (!o.spans.empty() && !spans.writeChromeTrace(o.spans))
        die(Status::ioError("cannot write ", o.spans));
    return 0;
}
