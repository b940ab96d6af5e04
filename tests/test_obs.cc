/**
 * @file
 * Observability layer: JSON model, the stats document schema, interval
 * delta-correctness, per-set heatmaps, event tracing, the writers,
 * the metrics registry and span tracing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "hierarchy/memsys.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/sink.hh"
#include "sample/engine.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/sharded.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

using namespace ccm;
using obs::JsonValue;

namespace
{

/** A timing run of @p trace with observers attached, as ccm-sim does. */
RunOutput
observedRun(TraceSource &trace, obs::IntervalSampler *sampler,
            obs::ClassifyEventTrace *events,
            const SystemConfig &cfg = baselineConfig())
{
    RunOutput r = runTiming(trace, cfg, [&](MemorySystem &mem) {
        mem.setAccessHook(
            [sampler, events](const AccessResult &, const MemStats &st) {
                if (events)
                    events->noteReference();
                if (sampler)
                    sampler->onAccess(st);
            });
        if (events)
            mem.mct().setLookupHook(events->hook());
    });
    if (sampler) {
        // As RunOutput::adoptWindows, but the sampler keeps its own
        // copy for the tests that read it.
        sampler->finish(r.mem);
        r.interval = sampler->every();
        r.intervals = sampler->samples();
    }
    return r;
}

/** A small real timing run (5000 go references) with observers. */
RunOutput
observedRun(obs::IntervalSampler *sampler,
            obs::ClassifyEventTrace *events,
            const SystemConfig &cfg = baselineConfig())
{
    VectorTrace trace = VectorTrace::capture(*makeWorkload("go", 5000, 7));
    return observedRun(trace, sampler, events, cfg);
}

/**
 * Alternating same-set, different-tag loads: with a direct-mapped
 * cache every access past the second is a miss whose evicted tag
 * matches the incoming one — the canonical conflict pattern.
 */
VectorTrace
pingPongTrace(std::size_t pairs, std::size_t cache_bytes = 16 * 1024)
{
    VectorTrace t("pingpong", {});
    for (std::size_t i = 0; i < pairs; ++i) {
        t.pushLoad(0);
        t.pushLoad(static_cast<Addr>(cache_bytes));
    }
    return t;
}

} // namespace

// ---- JSON model ----------------------------------------------------

TEST(ObsJson, ScalarRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("u", JsonValue::uint(18446744073709551615ull));
    doc.set("i", JsonValue::integer(-42));
    doc.set("d", JsonValue::real(0.1));
    doc.set("b", JsonValue::boolean(true));
    doc.set("n", JsonValue::null());
    doc.set("s", JsonValue::str("hi \"there\"\n\tü"));

    auto parsed = JsonValue::parse(doc.toString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &p = parsed.value();
    EXPECT_EQ(p.at("u").asU64(), 18446744073709551615ull);
    EXPECT_EQ(p.at("i").asI64(), -42);
    EXPECT_DOUBLE_EQ(p.at("d").asDouble(), 0.1);
    EXPECT_TRUE(p.at("b").asBool());
    EXPECT_TRUE(p.at("n").isNull());
    EXPECT_EQ(p.at("s").asString(), "hi \"there\"\n\tü");
    // A second serialize must be byte-identical (stable ordering).
    EXPECT_EQ(p.toString(), doc.toString());
}

TEST(ObsJson, ParseErrorsAreStatusNotDeath)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "\"\\q\"", "1 2",
          "{\"a\":1,}"}) {
        auto r = JsonValue::parse(bad);
        EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    }
}

TEST(ObsJson, ObjectSetOverwritesInPlace)
{
    JsonValue o = JsonValue::object();
    o.set("a", JsonValue::uint(1));
    o.set("b", JsonValue::uint(2));
    o.set("a", JsonValue::uint(3));
    ASSERT_EQ(o.size(), 2u);
    EXPECT_EQ(o.members()[0].first, "a");
    EXPECT_EQ(o.at("a").asU64(), 3u);
}

// ---- Schema golden -------------------------------------------------

TEST(ObsSchema, RunDocumentGolden)
{
    obs::IntervalSampler sampler(1000);
    RunOutput r = observedRun(&sampler, nullptr);
    JsonValue doc = obs::runDocument("go", r);

    // Golden header: these are the pinned on-disk values.  If this
    // test breaks, readers of old files break too — bump
    // kStatsSchemaVersion instead of silently changing the schema.
    EXPECT_EQ(doc.at("schema").asString(), "ccm-stats");
    EXPECT_EQ(doc.at("schema_version").asU64(), 1u);
    EXPECT_EQ(doc.at("kind").asString(), "run");
    EXPECT_EQ(doc.at("workload").asString(), "go");

    // Required sections, by their exact names.
    for (const char *key : {"sim", "mem", "heatmap", "intervals"})
        EXPECT_TRUE(doc.at(key).isObject()) << key;
    for (const char *key : {"cycles", "instructions", "mem_refs", "ipc"})
        EXPECT_FALSE(doc.at("sim").at(key).isNull()) << key;

    // Every MemStats counter and derived ratio appears under its
    // canonical name.
    const JsonValue &counters = doc.at("mem").at("counters");
    MemStats::forEachField([&](const char *name, Count MemStats::*) {
        EXPECT_FALSE(counters.at(name).isNull()) << name;
    });
    const JsonValue &derived = doc.at("mem").at("derived");
    r.mem.forEachDerived([&](const char *name, double) {
        EXPECT_FALSE(derived.at(name).isNull()) << name;
    });

    // And the whole thing validates.
    Status s = obs::validateStatsDoc(doc);
    EXPECT_TRUE(s.isOk()) << s.toString();

    // It still validates after a JSON round trip (on-disk form).
    auto reparsed = JsonValue::parse(doc.toString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(obs::validateStatsDoc(reparsed.value()).isOk());
}

TEST(ObsSchema, ValidatorRejectsTampering)
{
    obs::IntervalSampler sampler(1000);
    RunOutput r = observedRun(&sampler, nullptr);
    JsonValue doc = obs::runDocument("go", r);

    JsonValue wrong_version = doc;
    wrong_version.set("schema_version", JsonValue::uint(99));
    EXPECT_EQ(obs::validateStatsDoc(wrong_version).code(),
              ErrorCode::Unsupported);

    JsonValue wrong_schema = doc;
    wrong_schema.set("schema", JsonValue::str("not-stats"));
    EXPECT_FALSE(obs::validateStatsDoc(wrong_schema).isOk());

    // Lost counters: the interval deltas no longer sum to the
    // aggregates.
    JsonValue torn = doc;
    JsonValue mem = torn.at("mem");
    JsonValue counters = mem.at("counters");
    counters.set("accesses",
                 JsonValue::uint(counters.at("accesses").asU64() + 1));
    mem.set("counters", std::move(counters));
    torn.set("mem", std::move(mem));
    Status s = obs::validateStatsDoc(torn);
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.message().find("accesses"), std::string::npos);
}

namespace
{

/**
 * @p node with the value at the dotted @p path replaced by @p v, or
 * removed when @p v is empty.  Numeric segments index arrays (one
 * past the end appends); the empty path is the whole document.
 */
std::optional<JsonValue>
edited(const JsonValue &node, std::string_view path,
       const std::optional<JsonValue> &v)
{
    if (path.empty())
        return v;
    const std::size_t dot = path.find('.');
    const std::string key(path.substr(0, dot));
    const std::string_view rest =
        dot == std::string_view::npos ? "" : path.substr(dot + 1);
    if (node.isArray()) {
        const std::size_t idx = std::stoul(key);
        JsonValue out = JsonValue::array();
        for (std::size_t i = 0; i < node.size(); ++i) {
            std::optional<JsonValue> c =
                i == idx ? edited(node.elements()[i], rest, v)
                         : node.elements()[i];
            if (c)
                out.push(std::move(*c));
        }
        if (idx == node.size()) {
            if (std::optional<JsonValue> c = edited(JsonValue(), rest, v))
                out.push(std::move(*c));
        }
        return out;
    }
    JsonValue out = JsonValue::object();
    for (const auto &[k, child] : node.members()) {
        std::optional<JsonValue> c =
            k == key ? edited(child, rest, v) : child;
        if (c)
            out.set(k, std::move(*c));
    }
    return out;
}

/** A live daemon's document: one done stream, then one cut stream. */
JsonValue
serveDocument()
{
    serve::ServeOptions o;
    o.socketPath = ::testing::TempDir() + "ccm_obs_schema.sock";
    o.runtime.limits.windowEvery = 500;
    serve::ServeDaemon daemon(o);
    EXPECT_TRUE(daemon.start().isOk());
    auto settled = [&](const char *key) {
        for (int i = 0; i < 2000; ++i) {
            JsonValue doc = daemon.statsDocument();
            if (doc.at("daemon").at(key).asU64() == 1)
                return doc;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << "daemon never reported " << key;
        return JsonValue();
    };

    auto wl = makeWorkload("go", 2000, 7);
    auto done = serve::ServeClient::connect(o.socketPath, "done");
    EXPECT_TRUE(done.ok() && done.value().streamAll(*wl).isOk());
    settled("streams_done");

    auto cut = serve::ServeClient::connect(o.socketPath, "cut");
    EXPECT_TRUE(cut.ok());
    if (cut.ok())
        cut.value().closeAbrupt();
    JsonValue doc = settled("streams_failed");
    daemon.drainAndStop();
    return doc;
}

/** One valid document of every kind, each from its real builder. */
std::map<std::string, JsonValue>
validDocuments()
{
    std::map<std::string, JsonValue> docs;

    obs::IntervalSampler sampler(1000);
    obs::ClassifyEventTrace events;
    RunOutput r = observedRun(&sampler, &events);
    docs["run"] = obs::runDocument("go", r, &events);

    ParallelSuiteOptions windowed;
    windowed.interval = 500;
    docs["suite"] = obs::suiteDocument(runSuiteParallel(
        {"go"},
        [](const std::string &name)
            -> Expected<std::unique_ptr<TraceSource>> {
            return makeWorkloadChecked(name, 2000, 3);
        },
        baselineConfig(), windowed));

    const std::vector<MemRecord> recs =
        VectorTrace::capture(*makeWorkload("go", 20000, 7)).records();
    ShardedClassifyConfig ccfg;
    ccfg.interval = 5000;
    ClassifySuiteReport classified;
    classified.rows.push_back(
        {"go", Status::ok(),
         runShardedClassify(recs.data(), recs.size(), ccfg), 0.0});
    docs["classify"] = obs::classifyDocument("go", classified.rows[0].out);
    docs["classify-suite"] = obs::suiteDocument(classified);

    docs["serve"] = serveDocument();

    obs::MetricsRegistry reg;
    reg.counter("t_total", "a counter").inc(7);
    obs::Histogram &h = reg.histogram("t_us", "a histogram");
    h.observe(1);
    h.observe(1000);
    docs["metrics"] = obs::metricsDocument(reg);

    sample::SampleRunConfig scfg;
    scfg.mrc.rate = 0.1;
    scfg.intervals = 2;
    auto rep = sample::runSampleAnalysis(recs.data(), recs.size(), scfg);
    EXPECT_TRUE(rep.ok()) << rep.status().toString();
    docs["sample"] = obs::sampleDocument("go", rep.value());

    TextTable t({"policy", "speedup"});
    t.setNum(t.addRow("base"), 1, 1.0, 3);
    docs["bench"] = obs::benchDocument("unit_test", t);
    return docs;
}

} // namespace

/**
 * The validator's rejection corpus: every rejection validateStatsDoc
 * makes, each as one edit of a valid document of its kind, with the
 * field the error message must name.
 */
TEST(ObsSchema, RejectsMalformedDocuments)
{
    const std::map<std::string, JsonValue> docs = validDocuments();
    for (const auto &[kind, doc] : docs) {
        Status s = obs::validateStatsDoc(doc);
        ASSERT_TRUE(s.isOk()) << kind << ": " << s.toString();
    }

    const JsonValue &run = docs.at("run");
    const std::uint64_t sets = run.at("heatmap").at("sets").asU64();
    const std::uint64_t accesses =
        run.at("mem").at("counters").at("accesses").asU64();
    const std::uint64_t second_first = run.at("intervals")
                                           .at("samples")
                                           .elements()[1]
                                           .at("first_ref")
                                           .asU64();
    const std::uint64_t events_recorded =
        run.at("events").at("recorded").asU64();
    const std::uint64_t cap0 = docs.at("sample")
                                   .at("mrc")
                                   .at("points")
                                   .elements()[0]
                                   .at("capacity_bytes")
                                   .asU64();
    // One more representative, carrying no weight.
    const std::string extra_rep =
        "intervals.representatives." +
        std::to_string(docs.at("sample")
                           .at("intervals")
                           .at("representatives")
                           .size());
    JsonValue blank_point = JsonValue::array();
    blank_point.push(JsonValue::object());

    using J = JsonValue;
    const std::optional<JsonValue> drop;
    struct Rejection
    {
        const char *kind;
        const char *path; ///< dotted; "" = the whole document
        std::optional<JsonValue> value; ///< empty = remove the key
        const char *names; ///< what the message must mention
    };
    const std::vector<Rejection> corpus = {
        // Header, every kind.
        {"run", "", J::array(), "not a JSON object"},
        {"run", "schema", J::str("not-stats"), "ccm-stats"},
        {"run", "schema_version", J::uint(99), "schema_version"},
        {"run", "kind", J::str("bogus"), "kind 'bogus'"},
        // Run bodies.
        {"run", "workload", drop, "workload"},
        {"run", "mem", drop, "mem section"},
        {"run", "mem.counters", J::object(), "mem.counters"},
        {"run", "mem.derived", drop, "mem.derived"},
        {"run", "sim", drop, "sim.cycles"},
        {"run", "sim.ipc", J::str("fast"), "sim.ipc"},
        {"run", "heatmap", J::array(), "heatmap"},
        {"run", "heatmap.l1_misses", J::uint(0), "heatmap.l1_misses"},
        {"run", "heatmap.sets", J::uint(sets + 1), "heatmap.sets"},
        {"run", "heatmap.top_sets", drop, "heatmap.top_sets"},
        {"run", "intervals", J::array(), "intervals"},
        {"run", "intervals.samples", drop, "intervals.samples"},
        {"run", "intervals.samples.0.first_ref", J::uint(2),
         "start at ref 1"},
        {"run", "intervals.samples.1.first_ref",
         J::uint(second_first + 1), "not contiguous"},
        {"run", "intervals.samples.0.last_ref", J::uint(0),
         "before it starts"},
        {"run", "mem.counters.accesses", J::uint(accesses + 1),
         "'accesses'"},
        {"run", "events", J::array(), "events"},
        {"run", "events.events", drop, "events.events"},
        {"run", "events.recorded", J::uint(events_recorded + 1),
         "events.recorded"},
        {"run", "events.seen", J::uint(0), "events.seen"},
        // Suites.
        {"suite", "rows", drop, "rows"},
        {"suite", "rows.0.sim", drop, "sim.cycles"},
        {"suite", "rows.0.mem.counters.accesses", J::str("lots"),
         "mem.counters.accesses"},
        {"suite", "rows.0.workload", J::uint(1), "suite row 0"},
        {"suite", "rows.0.intervals.samples.0.first_ref", J::uint(2),
         "start at ref 1"},
        {"suite", "summary", drop, "summary"},
        {"suite", "summary.runs", J::uint(2), "summary.runs"},
        {"suite", "summary.errored", J::uint(1), "summary.errored"},
        // Classify bodies.
        {"classify", "classify", drop, "classify section"},
        {"classify", "classify.references", drop,
         "classify.references"},
        {"classify", "classify.misses", J::str("many"),
         "classify.misses"},
        {"classify", "mem.counters.l1_misses", J::str("many"),
         "mem.counters.l1_misses"},
        {"classify-suite", "rows.0.classify", drop,
         "classify section"},
        {"classify-suite", "summary.errored", J::uint(1),
         "summary.errored"},
        // Serve.
        {"serve", "daemon", drop, "daemon section"},
        {"serve", "daemon.records_total", drop, "daemon.records_total"},
        {"serve", "streams", drop, "streams"},
        {"serve", "streams.0.name", drop, "name"},
        {"serve", "streams.0.state", J::str("lost"), "state 'lost'"},
        {"serve", "streams.0.records", drop, "records"},
        {"serve", "streams.0.state", J::str("failed"), "no error"},
        {"serve", "streams.0.mem", drop, "mem section"},
        {"serve", "streams.0.mem.counters", J::object(),
         "mem.counters"},
        {"serve", "streams.0.heatmap.sets", J::uint(sets + 1),
         "heatmap.sets"},
        {"serve", "streams.0.window.samples.0.first_ref", J::uint(2),
         "start at ref 1"},
        {"serve", "daemon.streams_active", J::uint(1),
         "daemon.streams_active"},
        {"serve", "daemon.streams_done", J::uint(0),
         "daemon.streams_done"},
        {"serve", "daemon.streams_failed", J::uint(0),
         "daemon.streams_failed"},
        // Metrics.
        {"metrics", "metrics", drop, "metrics array"},
        {"metrics", "metrics.0.name", drop, "name"},
        {"metrics", "metrics.0.type", J::str("bogus"), "type 'bogus'"},
        {"metrics", "metrics.0.value", drop, "value"},
        {"metrics", "metrics.1.p99", drop, "p99"},
        {"metrics", "metrics.1.buckets", drop, "buckets"},
        {"metrics", "metrics.1.buckets.0.le", J::str("x"), "bucket"},
        {"metrics", "metrics.1.buckets.1.le", J::uint(0),
         "not cumulative"},
        {"metrics", "metrics.1.count", J::uint(99), "count"},
        // Samples.
        {"sample", "workload", drop, "workload"},
        {"sample", "sampling", drop, "sampling section"},
        {"sample", "sampling.total_refs", drop, "sampling.total_refs"},
        {"sample", "sampling.rate_final", J::real(0.0),
         "sampling.rate_final"},
        {"sample", "mrc", drop, "mrc section"},
        {"sample", "mrc.points", J::array(), "mrc.points"},
        {"sample", "mrc.points", blank_point, "capacity_bytes"},
        {"sample", "mrc.points.0.miss_ratio", J::real(1.5),
         "miss_ratio"},
        {"sample", "mrc.points.1.capacity_bytes", J::uint(cap0),
         "capacities"},
        {"sample", "mrc.points.1.miss_ratio", J::real(1.0),
         "miss_ratio rises"},
        {"sample", "recommendation", drop, "recommendation"},
        {"sample", "intervals.windows", drop, "intervals.windows"},
        {"sample", "intervals.representatives", J::array(),
         "intervals.representatives"},
        {"sample", "intervals.representatives.0.weight", J::real(5.0),
         "weights"},
        {"sample", extra_rep.c_str(), J::object(), "weight"},
        {"sample", "intervals.stats", J::array(), "intervals.stats"},
        {"sample", "intervals.stats.0.name", drop, "name"},
        {"sample", "intervals.stats.0.error_bar", drop, "error_bar"},
        // Bench.
        {"bench", "table.headers", J::array(), "table.headers"},
        {"bench", "table.rows", drop, "table.rows"},
        {"bench", "table.rows.0", J::array(), "row 0"},
    };

    for (const Rejection &r : corpus) {
        SCOPED_TRACE(std::string(r.kind) + " " + r.path);
        const std::optional<JsonValue> bad =
            edited(docs.at(r.kind), r.path, r.value);
        ASSERT_TRUE(bad.has_value());
        const Status s = obs::validateStatsDoc(*bad);
        EXPECT_FALSE(s.isOk());
        EXPECT_NE(s.toString().find(r.names), std::string::npos)
            << s.toString();
    }
}

// ---- Interval sampling ---------------------------------------------

TEST(ObsInterval, TimingDeltasSumToAggregates)
{
    obs::IntervalSampler sampler(700); // deliberately not a divisor
    RunOutput r = observedRun(&sampler, nullptr, victimConfig(true, true));

    ASSERT_GE(sampler.samples().size(), 2u);

    // Counter-wise: sum of every window's delta == final aggregate.
    MemStats sum;
    for (const auto &s : sampler.samples()) {
        MemStats::forEachField([&](const char *, Count MemStats::*f) {
            sum.*f += s.delta.*f;
        });
    }
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(sum.*f, r.mem.*f) << name;
    });

    // Windows tile [1, accesses] contiguously.
    Count prev_last = 0;
    for (const auto &s : sampler.samples()) {
        EXPECT_EQ(s.firstRef, prev_last + 1);
        EXPECT_GE(s.lastRef, s.firstRef);
        prev_last = s.lastRef;
    }
    EXPECT_EQ(prev_last, r.mem.accesses);
}

TEST(ObsInterval, RollingWindowBoundsSamplesAndValidates)
{
    obs::IntervalSampler sampler(500);
    sampler.setRollingCapacity(4);
    RunOutput r = observedRun(&sampler, nullptr);

    // The window is bounded and the overflow is declared, not hidden.
    EXPECT_LE(sampler.samples().size(), 4u);
    EXPECT_GT(sampler.droppedSamples(), 0u);

    // The retained tail is still contiguous and ends at the last ref.
    const auto &samples = sampler.samples();
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_EQ(samples[i].firstRef, samples[i - 1].lastRef + 1);
    EXPECT_EQ(samples.back().lastRef, r.mem.accesses);

    // dropped_samples rides along in the JSON, and a run document
    // carrying a rolling window still validates (the sum-of-deltas
    // invariant is skipped for documents that declare drops).
    JsonValue iv = obs::intervalsToJson(sampler);
    EXPECT_EQ(iv.at("dropped_samples").asU64(),
              sampler.droppedSamples());
    JsonValue doc = obs::runDocument("go", r);
    doc.set("intervals", iv);
    Status s = obs::validateStatsDoc(doc);
    EXPECT_TRUE(s.isOk()) << s.toString();
}

// ---- Per-set heatmaps ----------------------------------------------

TEST(ObsHeatmap, HistogramTotalsMatchAggregates)
{
    RunOutput r = observedRun(nullptr, nullptr);
    ASSERT_FALSE(r.heat.empty());
    EXPECT_EQ(r.heat.l1Misses.size(), r.heat.sets);

    Count miss_sum = 0, evict_sum = 0, lookup_sum = 0, conf_sum = 0;
    for (std::size_t s = 0; s < r.heat.sets; ++s) {
        miss_sum += r.heat.l1Misses[s];
        evict_sum += r.heat.l1Evictions[s];
        lookup_sum += r.heat.mctLookups[s];
        conf_sum += r.heat.mctConflicts[s];
    }
    EXPECT_EQ(miss_sum, r.mem.l1Misses);
    EXPECT_LE(evict_sum, miss_sum); // cold fills don't evict
    EXPECT_EQ(lookup_sum, r.mem.conflictMisses + r.mem.capacityMisses);
    EXPECT_EQ(conf_sum, r.mem.conflictMisses);
}

TEST(ObsHeatmap, PingPongConcentratesInOneSet)
{
    VectorTrace trace = pingPongTrace(100);
    RunOutput r = runTiming(trace, baselineConfig());
    ASSERT_FALSE(r.heat.empty());
    // All the traffic maps to set 0; every other set stays cold.
    EXPECT_GT(r.heat.l1Misses[0], 0u);
    for (std::size_t s = 1; s < r.heat.sets; ++s)
        EXPECT_EQ(r.heat.l1Misses[s], 0u) << "set " << s;

    JsonValue heat = obs::setHistogramsToJson(r.heat);
    ASSERT_GE(heat.at("top_sets").size(), 1u);
    EXPECT_EQ(heat.at("top_sets").elements()[0].at("set").asU64(), 0u);
}

// ---- Event tracing -------------------------------------------------

TEST(ObsEvents, CountsAndVerdictsUnderKnownConflictTrace)
{
    constexpr std::size_t pairs = 10;
    VectorTrace trace = pingPongTrace(pairs);
    obs::ClassifyEventTrace events;
    RunOutput r = observedRun(trace, nullptr, &events);

    // Every access misses, every miss is one MCT lookup.
    ASSERT_EQ(r.mem.accesses, 2 * pairs);
    ASSERT_EQ(r.mem.l1Misses, 2 * pairs);
    EXPECT_EQ(events.seen(), r.mem.l1Misses);
    EXPECT_EQ(events.recorded(), r.mem.l1Misses);
    EXPECT_EQ(events.dropped(), 0u);

    // First two lookups find an empty table; after that the evicted
    // tag always matches the incoming one.
    const auto &evs = events.events();
    ASSERT_EQ(evs.size(), 2 * pairs);
    EXPECT_FALSE(evs[0].storedValid);
    EXPECT_EQ(evs[0].verdict, MissClass::Capacity);
    EXPECT_FALSE(evs[1].storedValid);
    for (std::size_t i = 2; i < evs.size(); ++i) {
        EXPECT_TRUE(evs[i].storedValid) << i;
        EXPECT_EQ(evs[i].verdict, MissClass::Conflict) << i;
        EXPECT_EQ(evs[i].set, 0u);
        EXPECT_EQ(evs[i].storedTag, evs[i].incomingTag) << i;
    }
    // Events are stamped with the 1-based index of the reference
    // that raised them: here every reference raises exactly one.
    for (std::size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].ref, i + 1) << i;
    EXPECT_EQ(evs[0].ref, 1u);
    EXPECT_EQ(evs.back().ref, 2 * pairs);
}

TEST(ObsEvents, RateLimitAndCap)
{
    VectorTrace trace = pingPongTrace(30); // 60 lookups
    obs::EventTraceOptions opt;
    opt.sampleEvery = 3;
    opt.maxEvents = 5;
    obs::ClassifyEventTrace events(opt);
    observedRun(trace, nullptr, &events);

    EXPECT_EQ(events.seen(), 60u);
    EXPECT_EQ(events.recorded(), 5u);
    EXPECT_EQ(events.dropped(), 55u);
    EXPECT_EQ(events.events().size(), 5u);
    // Every third lookup is kept: references 1, 4, 7, 10, 13.
    for (std::size_t i = 0; i < events.events().size(); ++i)
        EXPECT_EQ(events.events()[i].ref, 3 * i + 1) << i;
}

// ---- Writers -------------------------------------------------------

TEST(ObsSink, TextAndCsvAreFlattenedViews)
{
    obs::IntervalSampler sampler(2500);
    RunOutput r = observedRun(&sampler, nullptr);
    JsonValue doc = obs::runDocument("go", r);

    std::ostringstream text;
    obs::writeDocument(text, doc, obs::StatsFormat::Text);
    EXPECT_NE(text.str().find("schema ccm-stats"), std::string::npos);
    EXPECT_NE(text.str().find("mem.counters.accesses 5000"),
              std::string::npos);
    EXPECT_NE(text.str().find("intervals.samples.0.first_ref 1"),
              std::string::npos);

    std::ostringstream csv;
    obs::writeDocument(csv, doc, obs::StatsFormat::Csv);
    EXPECT_EQ(csv.str().rfind("stat,value\n", 0), 0u);
    EXPECT_NE(csv.str().find("mem.counters.accesses,5000"),
              std::string::npos);
}

/** Feed @p words (argv[1..]) through StatsTarget; the first error. */
Status
parseStatsFlags(obs::StatsTarget &t, std::vector<std::string> words)
{
    words.insert(words.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    ArgCursor args(static_cast<int>(argv.size()), argv.data());
    while (args.next()) {
        EXPECT_TRUE(obs::StatsTarget::isFlag(args.flag()));
        Status s = t.parseFlag(args);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

TEST(ObsSink, StatsTargetTakesOneDestination)
{
    obs::StatsTarget t;
    ASSERT_TRUE(parseStatsFlags(t, {"--stats-out", "a.txt",
                                    "--stats-format", "csv"})
                    .isOk());
    EXPECT_EQ(t.path, "a.txt");
    EXPECT_EQ(t.format, obs::StatsFormat::Csv);
    // Naming the same file again is harmless; --stats-json means JSON.
    ASSERT_TRUE(parseStatsFlags(t, {"--stats-json", "a.txt"}).isOk());
    EXPECT_EQ(t.format, obs::StatsFormat::Json);

    obs::StatsTarget two;
    Status s =
        parseStatsFlags(two, {"--stats-json", "a", "--stats-out", "b"});
    EXPECT_EQ(s.code(), ErrorCode::BadConfig);
    EXPECT_NE(s.message().find("conflicting stats targets"),
              std::string::npos);
    EXPECT_EQ(parseStatsFlags(two, {"--stats-format", "xml"}).code(),
              ErrorCode::BadConfig);
    EXPECT_EQ(parseStatsFlags(two, {"--stats-out"}).code(),
              ErrorCode::BadConfig);
    EXPECT_FALSE(obs::StatsTarget::isFlag("--stats"));
}

TEST(ObsSink, SuiteDocumentRecordsErrorRows)
{
    SuiteReport report = runSuiteParallel(
        {"go", "no-such-workload"},
        [&](const std::string &name)
            -> Expected<std::unique_ptr<TraceSource>> {
            return makeWorkloadChecked(name, 2000, 3);
        },
        baselineConfig());
    ASSERT_EQ(report.failures(), 1u);

    JsonValue doc = obs::suiteDocument(report);
    Status s = obs::validateStatsDoc(doc);
    EXPECT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(doc.at("summary").at("errored").asU64(), 1u);
    const JsonValue &bad = doc.at("rows").elements()[1];
    EXPECT_EQ(bad.at("workload").asString(), "no-such-workload");
    EXPECT_TRUE(bad.at("error").isString());
}

TEST(ObsSink, BenchDocumentValidates)
{
    TextTable t({"policy", "speedup"});
    std::size_t r0 = t.addRow("base");
    t.setNum(r0, 1, 1.0, 3);
    JsonValue doc = obs::benchDocument("unit_test", t, "note");
    Status s = obs::validateStatsDoc(doc);
    EXPECT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(doc.at("table").at("headers").size(), 2u);
    EXPECT_EQ(doc.at("table").at("rows").size(), 1u);
}

// ---- Metrics: histogram bucket math --------------------------------

TEST(ObsMetrics, HistogramBucketBoundaries)
{
    using H = obs::Histogram;
    // Bucket i holds samples of bit width i: {0}, {1}, [2,3], [4,7]...
    EXPECT_EQ(H::bucketIndex(0), 0u);
    EXPECT_EQ(H::bucketIndex(1), 1u);
    EXPECT_EQ(H::bucketIndex(2), 2u);
    EXPECT_EQ(H::bucketIndex(3), 2u);
    EXPECT_EQ(H::bucketIndex(4), 3u);
    EXPECT_EQ(H::bucketIndex(7), 3u);
    EXPECT_EQ(H::bucketIndex(8), 4u);
    EXPECT_EQ(H::bucketIndex(~std::uint64_t{0}), 64u);

    EXPECT_EQ(H::bucketLo(0), 0u);
    EXPECT_EQ(H::bucketHi(0), 0u);
    EXPECT_EQ(H::bucketLo(64), std::uint64_t{1} << 63);
    EXPECT_EQ(H::bucketHi(64), ~std::uint64_t{0});

    // Every bucket's bounds map back into that bucket, and buckets
    // tile the uint64 range with no gap or overlap.
    for (std::size_t i = 0; i < H::kBuckets; ++i) {
        EXPECT_EQ(H::bucketIndex(H::bucketLo(i)), i) << i;
        EXPECT_EQ(H::bucketIndex(H::bucketHi(i)), i) << i;
        if (i > 0) {
            EXPECT_EQ(H::bucketLo(i), H::bucketHi(i - 1) + 1) << i;
        }
    }
}

TEST(ObsMetrics, HistogramPercentileGoldens)
{
    obs::Histogram h;
    // Empty: every percentile is 0 by definition.
    EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.5), 0.0);

    // Five samples of 10 land in bucket 4 ([8,15]).  rank =
    // ceil(q*5), interpolated lo + (hi-lo)*rank/n within the bucket.
    for (int i = 0; i < 5; ++i)
        h.observe(10);
    obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 50u);
    EXPECT_DOUBLE_EQ(s.percentile(0.50), 8.0 + 7.0 * 3.0 / 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 15.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.00), 15.0);

    // Uniform 1..100: p50's rank-50 sample sits in bucket 6 ([32,63],
    // 32 samples, 31 before it), 19 deep.
    obs::Histogram u;
    for (std::uint64_t v = 1; v <= 100; ++v)
        u.observe(v);
    obs::Histogram::Snapshot us = u.snapshot();
    EXPECT_EQ(us.count, 100u);
    EXPECT_DOUBLE_EQ(us.percentile(0.50),
                     32.0 + (63.0 - 32.0) * 19.0 / 32.0);

    // A single zero sample collapses to the point bucket.
    obs::Histogram z;
    z.observe(0);
    EXPECT_DOUBLE_EQ(z.snapshot().percentile(0.5), 0.0);
}

// ---- Metrics: registry ---------------------------------------------

TEST(ObsMetrics, RegistryReturnsStableInstruments)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("t_hits_total", "hits");
    obs::Counter &b = reg.counter("t_hits_total", "hits");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    a.inc();
    b.inc(2);
    EXPECT_EQ(a.value(), 3u);

    obs::Gauge &g = reg.gauge("t_depth", "depth");
    g.set(5);
    g.add(-7);
    EXPECT_EQ(g.value(), -2);
    EXPECT_EQ(reg.size(), 2u);

    // Re-registering a name as a different type — or registering a
    // name outside the Prometheus charset — is a programmer error:
    // ccm_panic, which aborts (it is a bug, not input).
    EXPECT_DEATH(reg.gauge("t_hits_total", "no"), "re-registered");
    EXPECT_DEATH(reg.counter("bad name", "no"), "invalid metric name");
}

TEST(ObsMetrics, PrometheusExpositionGolden)
{
    obs::MetricsRegistry reg;
    reg.counter("t_requests_total", "Total requests").inc(3);
    reg.gauge("t_depth", "Queue depth").set(-2);
    obs::Histogram &h = reg.histogram("t_lat_us", "Latency");
    h.observe(0);
    h.observe(5);
    h.observe(5);
    h.observe(100);

    // Pinned byte-for-byte: Prometheus text exposition v0.0.4 with
    // cumulative buckets up to the highest occupied one, then +Inf.
    EXPECT_EQ(reg.prometheusText(),
              "# HELP t_requests_total Total requests\n"
              "# TYPE t_requests_total counter\n"
              "t_requests_total 3\n"
              "# HELP t_depth Queue depth\n"
              "# TYPE t_depth gauge\n"
              "t_depth -2\n"
              "# HELP t_lat_us Latency\n"
              "# TYPE t_lat_us histogram\n"
              "t_lat_us_bucket{le=\"0\"} 1\n"
              "t_lat_us_bucket{le=\"1\"} 1\n"
              "t_lat_us_bucket{le=\"3\"} 1\n"
              "t_lat_us_bucket{le=\"7\"} 3\n"
              "t_lat_us_bucket{le=\"15\"} 3\n"
              "t_lat_us_bucket{le=\"31\"} 3\n"
              "t_lat_us_bucket{le=\"63\"} 3\n"
              "t_lat_us_bucket{le=\"127\"} 4\n"
              "t_lat_us_bucket{le=\"+Inf\"} 4\n"
              "t_lat_us_sum 110\n"
              "t_lat_us_count 4\n");
}

TEST(ObsMetrics, MetricsDocumentValidatesAndRejectsTampering)
{
    obs::MetricsRegistry reg;
    reg.counter("t_total", "a counter").inc(7);
    obs::Histogram &h = reg.histogram("t_us", "a histogram");
    h.observe(1);
    h.observe(1000);

    JsonValue doc = obs::metricsDocument(reg);
    EXPECT_EQ(doc.at("kind").asString(), "metrics");
    Status ok = obs::validateStatsDoc(doc);
    EXPECT_TRUE(ok.isOk()) << ok.toString();

    // Survives the on-disk round trip.
    auto reparsed = JsonValue::parse(doc.toString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(obs::validateStatsDoc(reparsed.value()).isOk());

    // An unknown instrument type is rejected...
    JsonValue bad_type = doc;
    JsonValue metrics = bad_type.at("metrics");
    JsonValue first = metrics.elements()[0];
    first.set("type", JsonValue::str("bogus"));
    JsonValue patched = JsonValue::array();
    patched.push(std::move(first));
    patched.push(metrics.elements()[1]);
    bad_type.set("metrics", std::move(patched));
    EXPECT_FALSE(obs::validateStatsDoc(bad_type).isOk());

    // ... and so is a histogram whose buckets disagree with count.
    JsonValue torn = doc;
    JsonValue arr = torn.at("metrics");
    JsonValue hist = arr.elements()[1];
    hist.set("count", JsonValue::uint(hist.at("count").asU64() + 1));
    JsonValue arr2 = JsonValue::array();
    arr2.push(arr.elements()[0]);
    arr2.push(std::move(hist));
    torn.set("metrics", std::move(arr2));
    EXPECT_FALSE(obs::validateStatsDoc(torn).isOk());
}

TEST(ObsMetrics, RegistryConcurrencyIsRaceFree)
{
    // TSan gate: concurrent registration of the same names plus hot
    // instrument updates from many threads.
    obs::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            obs::Counter &c = reg.counter("t_conc_total", "x");
            obs::Histogram &h = reg.histogram("t_conc_us", "x");
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.observe(i & 1023);
            }
            (void)reg.prometheusText(); // render while racing
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.size(), 2u);
    obs::Counter &c = reg.counter("t_conc_total", "x");
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    obs::Histogram::Snapshot s =
        reg.histogram("t_conc_us", "x").snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
}

// ---- Span tracing --------------------------------------------------

TEST(ObsSpan, DisabledTracerRecordsNothing)
{
    obs::SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.record("x", "test", 0, 1);
    {
        obs::ScopedSpan span(tracer, "scoped", "test");
    }
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_TRUE(tracer.flush().isOk()); // no path: a clean no-op
}

TEST(ObsSpan, TraceJsonIsWellFormedChromeTraceEvents)
{
    const std::string path =
        ::testing::TempDir() + "ccm_spans_test.json";
    obs::SpanTracer tracer;
    ASSERT_TRUE(tracer.enableToFile(path).isOk());
    ASSERT_TRUE(tracer.enabled());

    const std::uint64_t t0 = tracer.nowMicros();
    tracer.record("alpha", "suite", t0, t0 + 25);
    {
        obs::ScopedSpan span(tracer, "beta", "serve");
    }
    EXPECT_EQ(tracer.size(), 2u);

    auto parsed = obs::JsonValue::parse(tracer.traceJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &doc = parsed.value();
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.size(), 2u);
    for (const auto &e : events.elements()) {
        EXPECT_TRUE(e.at("name").isString());
        EXPECT_TRUE(e.at("cat").isString());
        EXPECT_EQ(e.at("ph").asString(), "X");
        EXPECT_TRUE(e.at("ts").isNumber());
        EXPECT_TRUE(e.at("dur").isNumber());
        EXPECT_FALSE(e.at("pid").isNull());
        EXPECT_FALSE(e.at("tid").isNull());
    }
    EXPECT_EQ(events.elements()[0].at("name").asString(), "alpha");
    EXPECT_EQ(events.elements()[0].at("dur").asU64(), 25u);
    EXPECT_EQ(doc.at("ccm").at("dropped_spans").asU64(), 0u);

    // flush() writes the same document to the enable-time path and
    // is non-destructive.
    ASSERT_TRUE(tracer.flush().isOk());
    std::ifstream in(path);
    std::stringstream file;
    file << in.rdbuf();
    auto reread = obs::JsonValue::parse(file.str());
    ASSERT_TRUE(reread.ok()) << reread.status().toString();
    EXPECT_EQ(reread.value().at("traceEvents").size(), 2u);
    EXPECT_EQ(tracer.size(), 2u);
    std::remove(path.c_str());
}
