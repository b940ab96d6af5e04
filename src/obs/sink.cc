#include "obs/sink.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <type_traits>

namespace ccm::obs
{

const char *
toString(StatsFormat f)
{
    switch (f) {
      case StatsFormat::Text: return "text";
      case StatsFormat::Json: return "json";
      case StatsFormat::Csv: return "csv";
    }
    return "?";
}

Expected<StatsFormat>
parseStatsFormat(std::string_view name)
{
    if (name == "text")
        return StatsFormat::Text;
    if (name == "json")
        return StatsFormat::Json;
    if (name == "csv")
        return StatsFormat::Csv;
    return Status::badConfig("unknown stats format '", name,
                             "' (expected text, json or csv)");
}

// ---- Section builders ---------------------------------------------

namespace
{

JsonValue
countersJson(const MemStats &stats)
{
    JsonValue counters = JsonValue::object();
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        counters.set(name, JsonValue::uint(stats.*f));
    });
    return counters;
}

JsonValue
derivedJson(const MemStats &stats)
{
    JsonValue derived = JsonValue::object();
    stats.forEachDerived([&](const char *name, double value) {
        derived.set(name, JsonValue::real(value));
    });
    return derived;
}

} // namespace

JsonValue
memStatsToJson(const MemStats &stats)
{
    JsonValue mem = JsonValue::object();
    mem.set("counters", countersJson(stats));
    mem.set("derived", derivedJson(stats));
    return mem;
}

JsonValue
simResultToJson(const SimResult &sim)
{
    JsonValue v = JsonValue::object();
    v.set("cycles", JsonValue::uint(sim.cycles));
    v.set("instructions", JsonValue::uint(sim.instructions));
    v.set("mem_refs", JsonValue::uint(sim.memRefs));
    v.set("ipc", JsonValue::real(sim.ipc));
    return v;
}

namespace
{

JsonValue
countArray(const std::vector<Count> &values)
{
    JsonValue a = JsonValue::array();
    for (Count c : values)
        a.push(JsonValue::uint(c));
    return a;
}

Count
setCount(const std::vector<Count> &values, std::size_t i)
{
    return i < values.size() ? values[i] : 0;
}

} // namespace

JsonValue
setHistogramsToJson(const SetHistograms &heat, std::size_t top_sets)
{
    JsonValue v = JsonValue::object();
    v.set("sets", JsonValue::uint(heat.sets));
    v.set("l1_misses", countArray(heat.l1Misses));
    v.set("l1_evictions", countArray(heat.l1Evictions));
    v.set("mct_lookups", countArray(heat.mctLookups));
    v.set("mct_conflicts", countArray(heat.mctConflicts));

    // Busiest sets by L1 misses, ties broken by set index.
    std::vector<std::size_t> order(heat.sets);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  Count ma = setCount(heat.l1Misses, a);
                  Count mb = setCount(heat.l1Misses, b);
                  return ma != mb ? ma > mb : a < b;
              });
    if (order.size() > top_sets)
        order.resize(top_sets);

    JsonValue top = JsonValue::array();
    for (std::size_t s : order) {
        if (setCount(heat.l1Misses, s) == 0)
            break; // idle sets aren't "hot"
        JsonValue row = JsonValue::object();
        row.set("set", JsonValue::uint(s));
        row.set("l1_misses", JsonValue::uint(setCount(heat.l1Misses, s)));
        row.set("l1_evictions",
                JsonValue::uint(setCount(heat.l1Evictions, s)));
        row.set("mct_lookups",
                JsonValue::uint(setCount(heat.mctLookups, s)));
        row.set("mct_conflicts",
                JsonValue::uint(setCount(heat.mctConflicts, s)));
        top.push(std::move(row));
    }
    v.set("top_sets", std::move(top));
    return v;
}

namespace
{

JsonValue
intervalSampleRows(const std::vector<IntervalSample> &samples)
{
    JsonValue out = JsonValue::array();
    for (const IntervalSample &s : samples) {
        JsonValue row = JsonValue::object();
        row.set("first_ref", JsonValue::uint(s.firstRef));
        row.set("last_ref", JsonValue::uint(s.lastRef));
        row.set("counters", countersJson(s.delta));
        row.set("derived", derivedJson(s.delta));
        out.push(std::move(row));
    }
    return out;
}

} // namespace

JsonValue
intervalsToJson(const IntervalSampler &sampler)
{
    JsonValue v = JsonValue::object();
    v.set("every", JsonValue::uint(sampler.every()));
    // Only rolling-window samplers (setRollingCapacity) ever drop;
    // the field is omitted otherwise so batch documents are
    // byte-stable against pre-rolling consumers.
    if (sampler.droppedSamples() > 0)
        v.set("dropped_samples",
              JsonValue::uint(sampler.droppedSamples()));
    v.set("samples", intervalSampleRows(sampler.samples()));
    return v;
}

JsonValue
intervalSamplesToJson(Count every,
                      const std::vector<IntervalSample> &samples)
{
    JsonValue v = JsonValue::object();
    v.set("every", JsonValue::uint(every));
    v.set("samples", intervalSampleRows(samples));
    return v;
}

JsonValue
eventsToJson(const ClassifyEventTrace &trace)
{
    JsonValue v = JsonValue::object();
    v.set("sample_every", JsonValue::uint(trace.options().sampleEvery));
    v.set("max_events", JsonValue::uint(trace.options().maxEvents));
    v.set("seen", JsonValue::uint(trace.seen()));
    v.set("recorded", JsonValue::uint(trace.recorded()));
    v.set("dropped", JsonValue::uint(trace.dropped()));

    JsonValue list = JsonValue::array();
    for (const ClassifyEvent &e : trace.events()) {
        JsonValue row = JsonValue::object();
        row.set("ref", JsonValue::uint(e.ref));
        row.set("set", JsonValue::uint(e.set));
        row.set("stored_valid", JsonValue::boolean(e.storedValid));
        row.set("stored_tag", JsonValue::uint(e.storedTag));
        row.set("incoming_tag", JsonValue::uint(e.incomingTag));
        row.set("verdict", JsonValue::str(toString(e.verdict)));
        list.push(std::move(row));
    }
    v.set("events", std::move(list));
    return v;
}

// ---- Document builders --------------------------------------------

namespace
{

JsonValue
documentHeader(const char *kind)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::str(kStatsSchemaName));
    doc.set("schema_version", JsonValue::uint(kStatsSchemaVersion));
    doc.set("kind", JsonValue::str(kind));
    return doc;
}

/** The result section of a timing run: its core's totals. */
void
setResultSection(JsonValue &doc, const RunOutput &out)
{
    doc.set("sim", simResultToJson(out.sim));
}

/** The result section of a classify run: its reference and miss totals. */
void
setResultSection(JsonValue &doc, const ShardedClassifyResult &out)
{
    JsonValue cls = JsonValue::object();
    cls.set("references", JsonValue::uint(out.references));
    cls.set("misses", JsonValue::uint(out.misses));
    cls.set("miss_rate_pct", JsonValue::real(out.missRate * 100.0));
    doc.set("classify", std::move(cls));
}

/**
 * Body of a kind:"run" or kind:"classify" document and of each ok
 * suite row: the result section, counters, heatmap and windows.
 */
template <typename Out>
void
fillBody(JsonValue &doc, const std::string &workload, const Out &out)
{
    doc.set("workload", JsonValue::str(workload));
    setResultSection(doc, out);
    doc.set("mem", memStatsToJson(out.mem));
    if (!out.heat.empty())
        doc.set("heatmap", setHistogramsToJson(out.heat));
    if (!out.intervals.empty())
        doc.set("intervals",
                intervalSamplesToJson(out.interval, out.intervals));
}

/** The rows/summary document shared by both suite kinds. */
template <typename Out>
JsonValue
suiteRowsDocument(const char *kind, const SuiteReportOf<Out> &report)
{
    JsonValue doc = documentHeader(kind);
    JsonValue rows = JsonValue::array();
    double wall_total = 0.0;
    for (const SuiteRowOf<Out> &r : report.rows) {
        JsonValue row = JsonValue::object();
        if (r.ok()) {
            fillBody(row, r.workload, r.out);
        } else {
            row.set("workload", JsonValue::str(r.workload));
            row.set("error", JsonValue::str(r.status.toString()));
        }
        // The nondeterministic fields of the document (ci strips them
        // before byte-diffs): everything else is byte-identical across
        // --jobs and --shards settings.  A classify row adds its
        // throughput: trace records (non-memory included) per second
        // of the row's open-to-result time, the unit of the CLI's
        // records/sec and perfbench's Mrec/s.
        row.set("wall_seconds", JsonValue::real(r.wallSeconds));
        if constexpr (std::is_same_v<Out, ShardedClassifyResult>) {
            if (r.ok())
                row.set("records_per_sec",
                        JsonValue::real(
                            r.wallSeconds > 0.0
                                ? static_cast<double>(r.out.records) /
                                      r.wallSeconds
                                : 0.0));
        }
        wall_total += r.wallSeconds;
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    JsonValue summary = JsonValue::object();
    summary.set("runs", JsonValue::uint(report.rows.size()));
    summary.set("errored", JsonValue::uint(report.failures()));
    summary.set("wall_seconds_total", JsonValue::real(wall_total));
    doc.set("summary", std::move(summary));
    return doc;
}

} // namespace

JsonValue
runDocument(const std::string &workload, const RunOutput &out,
            const ClassifyEventTrace *events)
{
    JsonValue doc = documentHeader("run");
    fillBody(doc, workload, out);
    if (events && events->seen() > 0)
        doc.set("events", eventsToJson(*events));
    return doc;
}

JsonValue
suiteDocument(const SuiteReport &report)
{
    return suiteRowsDocument("suite", report);
}

JsonValue
suiteDocument(const ClassifySuiteReport &report)
{
    return suiteRowsDocument("classify-suite", report);
}

JsonValue
classifyDocument(const std::string &workload,
                 const ShardedClassifyResult &out)
{
    JsonValue doc = documentHeader("classify");
    fillBody(doc, workload, out);
    return doc;
}

JsonValue
sampleDocument(const std::string &workload,
               const sample::SampleReport &rep)
{
    JsonValue doc = documentHeader("sample");
    doc.set("workload", JsonValue::str(workload));

    JsonValue sampling = JsonValue::object();
    sampling.set("rate_configured",
                 JsonValue::real(rep.mrc.configuredRate));
    sampling.set("rate_final", JsonValue::real(rep.mrc.finalRate));
    sampling.set("seed", JsonValue::uint(rep.mrc.seed));
    sampling.set("variant",
                 JsonValue::str(sample::toString(rep.mrc.variant)));
    sampling.set("rate_corrected",
                 JsonValue::boolean(rep.mrc.rateCorrected));
    sampling.set("threshold_halvings",
                 JsonValue::uint(rep.mrc.thresholdHalvings));
    sampling.set("min_lines_boost",
                 JsonValue::boolean(rep.mrc.minLinesBoost));
    sampling.set("total_refs", JsonValue::uint(rep.mrc.totalRefs));
    sampling.set("sampled_refs",
                 JsonValue::uint(rep.mrc.sampledRefs));
    sampling.set("lines_sampled",
                 JsonValue::uint(rep.mrc.linesSampled));
    doc.set("sampling", std::move(sampling));

    JsonValue mrc = JsonValue::object();
    mrc.set("line_bytes", JsonValue::uint(rep.mrc.lineBytes));
    JsonValue points = JsonValue::array();
    for (std::size_t i = 0; i < rep.mrc.points.size(); ++i) {
        const sample::MrcPoint &p = rep.mrc.points[i];
        JsonValue pt = JsonValue::object();
        pt.set("capacity_bytes", JsonValue::uint(p.capacityBytes));
        pt.set("bank_lines", JsonValue::uint(p.bankLines));
        pt.set("sampled_misses", JsonValue::uint(p.sampledMisses));
        pt.set("miss_ratio", JsonValue::real(p.missRatio));
        if (rep.hasExact && i < rep.exactMrc.points.size()) {
            const double exact = rep.exactMrc.points[i].missRatio;
            pt.set("exact_miss_ratio", JsonValue::real(exact));
            pt.set("abs_error",
                   JsonValue::real(std::fabs(p.missRatio - exact)));
        }
        points.push(std::move(pt));
    }
    mrc.set("points", std::move(points));
    doc.set("mrc", std::move(mrc));

    const sample::GeometryRecommendation &rec = rep.recommendation;
    JsonValue r = JsonValue::object();
    r.set("buf_entries", JsonValue::uint(rec.bufEntries));
    r.set("victim_conflicts",
          JsonValue::boolean(rec.victimConflicts));
    r.set("prefetch_capacity",
          JsonValue::boolean(rec.prefetchCapacity));
    r.set("exclude_capacity",
          JsonValue::boolean(rec.excludeCapacity));
    r.set("mr_at_l1", JsonValue::real(rec.missRatioAtL1));
    r.set("gain_2x", JsonValue::real(rec.gainDouble));
    r.set("gain_4x", JsonValue::real(rec.gainQuad));
    r.set("mr_at_max", JsonValue::real(rec.missRatioAtMax));
    r.set("rationale", JsonValue::str(rec.rationale));
    doc.set("recommendation", std::move(r));

    if (rep.hasIntervals) {
        const sample::IntervalResult &ivl = rep.intervals;
        JsonValue sec = JsonValue::object();
        sec.set("windows", JsonValue::uint(ivl.windows));
        sec.set("clusters", JsonValue::uint(ivl.clusters));
        sec.set("window_refs", JsonValue::uint(ivl.windowRefs));
        sec.set("total_refs", JsonValue::uint(ivl.totalRefs));
        sec.set("replayed_refs", JsonValue::uint(ivl.replayedRefs));
        sec.set("confidence", JsonValue::real(ivl.confidence));

        JsonValue reps = JsonValue::array();
        for (const sample::RepresentativeWindow &w : ivl.reps) {
            JsonValue row = JsonValue::object();
            row.set("window_index", JsonValue::uint(w.windowIndex));
            row.set("weight", JsonValue::real(w.weight));
            row.set("cluster_size", JsonValue::uint(w.clusterSize));
            row.set("first_ref", JsonValue::uint(w.firstRef));
            row.set("last_ref", JsonValue::uint(w.lastRef));
            row.set("refs", JsonValue::uint(w.refs));
            row.set("rel_spread", JsonValue::real(w.relSpread));
            reps.push(std::move(row));
        }
        sec.set("representatives", std::move(reps));

        JsonValue stats = JsonValue::array();
        for (const sample::StatEstimate &est : ivl.stats) {
            JsonValue row = JsonValue::object();
            row.set("name", JsonValue::str(est.name));
            row.set("predicted", JsonValue::real(est.predicted));
            row.set("error_bar", JsonValue::real(est.errorBar));
            if (rep.hasExact) {
                Count exact_v = 0;
                MemStats::forEachField(
                    [&](const char *name, Count MemStats::*f) {
                        if (est.name == name)
                            exact_v = rep.exactClassify.mem.*f;
                    });
                row.set("exact", JsonValue::uint(exact_v));
                row.set("abs_error",
                        JsonValue::real(std::fabs(
                            est.predicted -
                            static_cast<double>(exact_v))));
            }
            stats.push(std::move(row));
        }
        sec.set("stats", std::move(stats));
        doc.set("intervals", std::move(sec));
    }

    if (rep.hasExact) {
        JsonValue err = JsonValue::object();
        err.set("mrc_mae", JsonValue::real(rep.mrcMae));
        err.set("mrc_max_error", JsonValue::real(rep.mrcMaxError));
        err.set("max_stat_rel_error",
                JsonValue::real(rep.maxStatRelError));
        doc.set("error", std::move(err));
    }

    doc.set("wall_seconds_sampled",
            JsonValue::real(rep.wallSecondsSampled));
    if (rep.hasExact)
        doc.set("wall_seconds_exact",
                JsonValue::real(rep.wallSecondsExact));
    return doc;
}

JsonValue
statsDocumentHeader(const std::string &kind)
{
    return documentHeader(kind.c_str());
}

JsonValue
metricsDocument(const MetricsRegistry &registry)
{
    JsonValue doc = documentHeader("metrics");
    doc.set("metrics", registry.metricsJson());
    return doc;
}

JsonValue
tableToJson(const TextTable &table)
{
    JsonValue v = JsonValue::object();
    JsonValue headers = JsonValue::array();
    for (std::size_t c = 0; c < table.cols(); ++c)
        headers.push(JsonValue::str(table.header(c)));
    v.set("headers", std::move(headers));
    JsonValue rows = JsonValue::array();
    for (std::size_t r = 0; r < table.rows(); ++r) {
        JsonValue row = JsonValue::array();
        for (std::size_t c = 0; c < table.cols(); ++c)
            row.push(JsonValue::str(table.cell(r, c)));
        rows.push(std::move(row));
    }
    v.set("rows", std::move(rows));
    return v;
}

JsonValue
benchDocument(const std::string &bench_name, const TextTable &table,
              const std::string &note)
{
    JsonValue doc = documentHeader("bench");
    doc.set("bench", JsonValue::str(bench_name));
    if (!note.empty())
        doc.set("note", JsonValue::str(note));
    doc.set("table", tableToJson(table));
    return doc;
}

Expected<std::string>
writeBenchJson(const std::string &bench_name, const TextTable &table,
               const std::string &note)
{
    std::string dir = ".";
    // Bench harnesses are single-threaded and nothing in this process
    // calls setenv, so the lookup cannot race a mutation.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *env = std::getenv("CCM_BENCH_JSON_DIR"))
        dir = env;
    std::string path = dir + "/BENCH_" + bench_name + ".json";
    Status s = writeDocumentToFile(path, benchDocument(bench_name,
                                                       table, note),
                                   StatsFormat::Json);
    if (!s.isOk())
        return s;
    return path;
}

// ---- Writers ------------------------------------------------------

namespace
{

/** One-line rendering of a scalar (strings unquoted). */
std::string
scalarText(const JsonValue &v)
{
    if (v.isString())
        return v.asString();
    std::string s = v.toString();
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

template <typename Fn>
void
flatten(const JsonValue &v, const std::string &path, Fn &&fn)
{
    if (v.isObject()) {
        for (const auto &[key, child] : v.members()) {
            flatten(child, path.empty() ? key : path + "." + key, fn);
        }
    } else if (v.isArray()) {
        std::size_t i = 0;
        for (const JsonValue &child : v.elements()) {
            flatten(child, path + "." + std::to_string(i), fn);
            ++i;
        }
    } else {
        fn(path, v);
    }
}

std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
writeDocument(std::ostream &os, const JsonValue &doc, StatsFormat format)
{
    switch (format) {
      case StatsFormat::Json:
        doc.write(os);
        return;
      case StatsFormat::Text:
        flatten(doc, "", [&](const std::string &path, const JsonValue &v) {
            os << path << " " << scalarText(v) << "\n";
        });
        return;
      case StatsFormat::Csv:
        os << "stat,value\n";
        flatten(doc, "", [&](const std::string &path, const JsonValue &v) {
            os << csvQuote(path) << "," << csvQuote(scalarText(v))
               << "\n";
        });
        return;
    }
}

Status
writeDocumentToFile(const std::string &path, const JsonValue &doc,
                    StatsFormat format)
{
    if (path == "-") {
        writeDocument(std::cout, doc, format);
        return Status::ok();
    }
    std::ofstream os(path);
    if (!os)
        return Status::ioError("cannot open '", path, "' for writing");
    writeDocument(os, doc, format);
    os.flush();
    if (!os)
        return Status::ioError("write to '", path, "' failed");
    return Status::ok();
}

bool
StatsTarget::isFlag(std::string_view flag)
{
    return flag == "--stats-json" || flag == "--stats-out" ||
           flag == "--stats-format";
}

Status
StatsTarget::parseFlag(ArgCursor &args)
{
    const std::string &flag = args.flag();
    std::string text;
    Status s = args.value(text);
    if (!s.isOk())
        return s;
    if (flag == "--stats-format") {
        Expected<StatsFormat> f = parseStatsFormat(text);
        if (!f.ok())
            return f.status();
        format = f.value();
        return Status::ok();
    }
    if (!path.empty() && path != text)
        return Status::badConfig("conflicting stats targets '", path,
                                 "' and '", text,
                                 "' (use one --stats-json/--stats-out "
                                 "destination)");
    path = text;
    if (flag == "--stats-json")
        format = StatsFormat::Json;
    return Status::ok();
}

// ---- Validation ---------------------------------------------------

namespace
{

Status
checkHeatmap(const JsonValue &heat)
{
    if (!heat.isObject())
        return Status::badConfig("heatmap is not an object");
    const std::uint64_t sets = heat.at("sets").asU64();
    for (const char *key :
         {"l1_misses", "l1_evictions", "mct_lookups", "mct_conflicts"}) {
        const JsonValue &arr = heat.at(key);
        if (!arr.isArray())
            return Status::badConfig("heatmap.", key,
                                     " is not an array");
        if (arr.size() != sets)
            return Status::badConfig(
                "heatmap.", key, " has ", arr.size(),
                " entries but heatmap.sets is ", sets);
    }
    if (!heat.at("top_sets").isArray())
        return Status::badConfig("heatmap.top_sets is not an array");
    return Status::ok();
}

Status
checkIntervals(const JsonValue &intervals, const JsonValue *counters)
{
    if (!intervals.isObject())
        return Status::badConfig("intervals is not an object");
    const JsonValue &samples = intervals.at("samples");
    if (!samples.isArray())
        return Status::badConfig("intervals.samples is not an array");

    // A rolling window (ccm-serve) declares how many leading samples
    // it discarded; the retained tail must still be contiguous, it
    // just no longer starts at ref 1.
    const bool rolling = intervals.at("dropped_samples").asU64() > 0;

    // Windows must tile [first, last] contiguously...
    std::uint64_t prev_last = 0;
    bool have_prev = false;
    for (const JsonValue &s : samples.elements()) {
        const std::uint64_t first = s.at("first_ref").asU64();
        const std::uint64_t last = s.at("last_ref").asU64();
        if (!have_prev) {
            if (!rolling && first != 1)
                return Status::badConfig(
                    "interval windows do not start at ref 1");
            have_prev = true;
        } else if (first != prev_last + 1) {
            return Status::badConfig(
                "interval windows are not contiguous at ref ", first);
        }
        if (last < first)
            return Status::badConfig("interval window ends (", last,
                                     ") before it starts (", first,
                                     ")");
        prev_last = last;
    }

    // ... and the counter-wise sum of the deltas must equal the final
    // aggregates.  This is the invariant that makes the time series
    // trustworthy: nothing sampled twice, nothing lost.  A rolling
    // window that has dropped samples can no longer satisfy it, and a
    // live document with no aggregates yet has nothing to sum to.
    if (rolling || !counters)
        return Status::ok();
    for (const auto &[name, aggregate] : counters->members()) {
        std::uint64_t sum = 0;
        for (const JsonValue &s : samples.elements())
            sum += s.at("counters").at(name).asU64();
        if (sum != aggregate.asU64())
            return Status::badConfig(
                "interval deltas for '", name, "' sum to ", sum,
                " but the aggregate is ", aggregate.asU64());
    }
    return Status::ok();
}

Status
checkEvents(const JsonValue &events)
{
    if (!events.isObject())
        return Status::badConfig("events is not an object");
    const JsonValue &list = events.at("events");
    if (!list.isArray())
        return Status::badConfig("events.events is not an array");
    const std::uint64_t recorded = events.at("recorded").asU64();
    const std::uint64_t seen = events.at("seen").asU64();
    if (list.size() != recorded)
        return Status::badConfig("events.recorded is ", recorded,
                                 " but ", list.size(),
                                 " events are present");
    if (recorded > seen)
        return Status::badConfig("events.recorded exceeds events.seen");
    return Status::ok();
}

/** A non-empty mem.counters object of numbers. */
Status
checkCounters(const JsonValue &counters)
{
    if (!counters.isObject() || counters.size() == 0)
        return Status::badConfig("missing mem.counters");
    for (const auto &[name, value] : counters.members()) {
        if (!value.isNumber())
            return Status::badConfig("mem.counters.", name,
                                     " is not a number");
    }
    return Status::ok();
}

/**
 * The body of a run: workload, mem and the optional heatmap,
 * intervals and events sections.  @p timed also requires the timing
 * model's sim section (run documents and suite rows; a classify body
 * has none).
 */
Status
checkRunBody(const JsonValue &doc, bool timed)
{
    if (!doc.at("workload").isString())
        return Status::badConfig("missing workload name");
    const JsonValue &mem = doc.at("mem");
    if (!mem.isObject())
        return Status::badConfig("missing mem section");
    const JsonValue &counters = mem.at("counters");
    Status cs = checkCounters(counters);
    if (!cs.isOk())
        return cs;
    if (!mem.at("derived").isObject())
        return Status::badConfig("missing mem.derived");
    if (timed) {
        for (const char *key :
             {"cycles", "instructions", "mem_refs", "ipc"}) {
            if (!doc.at("sim").at(key).isNumber())
                return Status::badConfig(
                    "sim.", key, " is missing or not a number");
        }
    }

    if (const JsonValue *heat = doc.get("heatmap")) {
        Status s = checkHeatmap(*heat);
        if (!s.isOk())
            return s;
    }
    if (const JsonValue *intervals = doc.get("intervals")) {
        Status s = checkIntervals(*intervals, &counters);
        if (!s.isOk())
            return s;
    }
    if (const JsonValue *events = doc.get("events")) {
        Status s = checkEvents(*events);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

/** Run-body invariants plus the classify summary block. */
Status
checkClassifyBody(const JsonValue &doc)
{
    Status s = checkRunBody(doc, false);
    if (!s.isOk())
        return s;
    const JsonValue &cls = doc.at("classify");
    if (!cls.isObject())
        return Status::badConfig("missing classify section");
    for (const char *key : {"references", "misses"}) {
        if (!cls.at(key).isNumber())
            return Status::badConfig("classify.", key,
                                     " is missing or not a number");
    }
    return Status::ok();
}

bool
knownStreamState(const std::string &state)
{
    return state == "admitted" || state == "running" ||
           state == "draining" || state == "done" ||
           state == "failed";
}

/**
 * kind:"serve" documents (docs/SERVING.md): a daemon summary plus one
 * entry per stream.  Live documents carry partial counters; finished
 * streams carry the same sim/mem/heatmap sections as a batch run row,
 * and failed streams carry their Status string.
 */
Status
checkServeBody(const JsonValue &doc)
{
    const JsonValue &daemon = doc.at("daemon");
    if (!daemon.isObject())
        return Status::badConfig("missing daemon section");
    for (const char *key : {"streams_total", "streams_active",
                            "streams_done", "streams_failed",
                            "records_total"}) {
        if (!daemon.at(key).isNumber())
            return Status::badConfig("daemon.", key,
                                     " is missing or not a number");
    }

    const JsonValue &streams = doc.at("streams");
    if (!streams.isArray())
        return Status::badConfig("missing streams array");

    std::uint64_t active = 0, done = 0, failed = 0;
    std::size_t i = 0;
    for (const JsonValue &s : streams.elements()) {
        const std::string ctx = "stream " + std::to_string(i);
        if (!s.at("name").isString())
            return Status::badConfig(ctx, ": missing name");
        const std::string &state = s.at("state").asString();
        if (!knownStreamState(state))
            return Status::badConfig(ctx, ": unknown state '", state,
                                     "'");
        if (!s.at("records").isNumber())
            return Status::badConfig(ctx, ": missing records count");
        if (state == "failed") {
            ++failed;
            if (!s.at("error").isString())
                return Status::badConfig(
                    ctx, ": failed stream carries no error");
        } else if (state == "done") {
            ++done;
            const JsonValue &mem = s.at("mem");
            if (!mem.isObject() || !mem.at("derived").isObject())
                return Status::badConfig(
                    ctx, ": done stream has no mem section");
            Status st = checkCounters(mem.at("counters"));
            if (!st.isOk())
                return st.withContext(ctx);
        } else {
            ++active;
        }
        if (const JsonValue *heat = s.get("heatmap")) {
            Status st = checkHeatmap(*heat);
            if (!st.isOk())
                return st.withContext(ctx);
        }
        if (const JsonValue *window = s.get("window")) {
            const JsonValue *counters =
                state == "done" ? s.at("mem").get("counters")
                                : nullptr;
            Status st = checkIntervals(*window, counters);
            if (!st.isOk())
                return st.withContext(ctx + " window");
        }
        ++i;
    }

    // Active streams are always present in the array; finished ones
    // may have been evicted by report retention, so their array
    // counts only bound the daemon totals from below.
    if (active != daemon.at("streams_active").asU64())
        return Status::badConfig(
            "daemon.streams_active is ",
            daemon.at("streams_active").asU64(), " but ", active,
            " active streams are listed");
    if (done > daemon.at("streams_done").asU64())
        return Status::badConfig(
            "more done streams listed than daemon.streams_done");
    if (failed > daemon.at("streams_failed").asU64())
        return Status::badConfig(
            "more failed streams listed than daemon.streams_failed");
    return Status::ok();
}

/**
 * kind:"metrics" documents (docs/OBSERVABILITY.md): one entry per
 * instrument with a known type; histograms carry count/sum and
 * cumulative, non-decreasing {le, count} buckets whose final count
 * matches the histogram count.
 */
Status
checkMetricsBody(const JsonValue &doc)
{
    const JsonValue &metrics = doc.at("metrics");
    if (!metrics.isArray())
        return Status::badConfig("missing metrics array");

    std::size_t i = 0;
    for (const JsonValue &m : metrics.elements()) {
        const std::string ctx = "metric " + std::to_string(i);
        if (!m.at("name").isString())
            return Status::badConfig(ctx, ": missing name");
        const std::string ctxn = "metric '" + m.at("name").asString() +
                                 "'";
        const std::string &type = m.at("type").asString();
        if (type == "counter" || type == "gauge") {
            if (!m.at("value").isNumber())
                return Status::badConfig(ctxn, ": missing value");
        } else if (type == "histogram") {
            for (const char *key :
                 {"count", "sum", "p50", "p95", "p99"}) {
                if (!m.at(key).isNumber())
                    return Status::badConfig(ctxn, ": ", key,
                                             " is missing or not a "
                                             "number");
            }
            const JsonValue &buckets = m.at("buckets");
            if (!buckets.isArray())
                return Status::badConfig(ctxn,
                                         ": missing buckets array");
            std::uint64_t prev_le = 0, prev_count = 0;
            bool first = true;
            for (const JsonValue &b : buckets.elements()) {
                if (!b.at("le").isNumber() ||
                    !b.at("count").isNumber())
                    return Status::badConfig(
                        ctxn, ": malformed bucket row");
                const std::uint64_t le = b.at("le").asU64();
                const std::uint64_t count = b.at("count").asU64();
                if (!first &&
                    (le <= prev_le || count < prev_count))
                    return Status::badConfig(
                        ctxn, ": buckets are not cumulative");
                prev_le = le;
                prev_count = count;
                first = false;
            }
            if (prev_count != m.at("count").asU64())
                return Status::badConfig(
                    ctxn, ": bucket counts sum to ", prev_count,
                    " but count is ", m.at("count").asU64());
        } else {
            return Status::badConfig(ctxn, ": unknown type '", type,
                                     "'");
        }
        ++i;
    }
    return Status::ok();
}

/**
 * kind:"sample" documents (docs/OBSERVABILITY.md): sampling
 * parameters, a non-empty monotone non-increasing miss-ratio curve
 * over strictly ascending capacities, a geometry recommendation,
 * and — when the interval pillar ran — per-stat estimates that all
 * carry error bars and representative weights that sum to 1.
 */
Status
checkSampleBody(const JsonValue &doc)
{
    if (!doc.at("workload").isString())
        return Status::badConfig("missing workload name");

    const JsonValue &sampling = doc.at("sampling");
    if (!sampling.isObject())
        return Status::badConfig("missing sampling section");
    for (const char *key :
         {"rate_configured", "rate_final", "total_refs",
          "sampled_refs", "lines_sampled"}) {
        if (!sampling.at(key).isNumber())
            return Status::badConfig("sampling.", key,
                                     " is missing or not a number");
    }
    const double rate = sampling.at("rate_final").asDouble();
    if (!(rate > 0.0) || rate > 1.0)
        return Status::badConfig("sampling.rate_final ", rate,
                                 " out of (0, 1]");

    const JsonValue &mrc = doc.at("mrc");
    if (!mrc.isObject())
        return Status::badConfig("missing mrc section");
    const JsonValue &points = mrc.at("points");
    if (!points.isArray() || points.size() == 0)
        return Status::badConfig("mrc.points is missing or empty");
    std::uint64_t prev_cap = 0;
    double prev_mr = 2.0;
    bool first = true;
    for (const JsonValue &p : points.elements()) {
        if (!p.at("capacity_bytes").isNumber() ||
            !p.at("miss_ratio").isNumber())
            return Status::badConfig(
                "mrc.points[].capacity_bytes and miss_ratio must be "
                "numbers");
        const std::uint64_t cap = p.at("capacity_bytes").asU64();
        const double mr = p.at("miss_ratio").asDouble();
        if (mr < 0.0 || mr > 1.0)
            return Status::badConfig("mrc miss_ratio ", mr,
                                     " out of [0, 1]");
        if (!first) {
            if (cap <= prev_cap)
                return Status::badConfig(
                    "mrc capacities are not strictly ascending at ",
                    cap);
            // LRU inclusion makes the curve non-increasing; allow
            // float-rounding slack only.
            if (mr > prev_mr + 1e-9)
                return Status::badConfig(
                    "mrc miss_ratio rises from ", prev_mr, " to ",
                    mr, " at capacity ", cap);
        }
        prev_cap = cap;
        prev_mr = mr;
        first = false;
    }

    if (!doc.at("recommendation").isObject())
        return Status::badConfig("missing recommendation section");

    if (const JsonValue *ivl = doc.get("intervals")) {
        for (const char *key :
             {"windows", "clusters", "window_refs", "confidence"}) {
            if (!ivl->at(key).isNumber())
                return Status::badConfig(
                    "intervals.", key, " is missing or not a number");
        }
        const JsonValue &reps = ivl->at("representatives");
        if (!reps.isArray() || reps.size() == 0)
            return Status::badConfig(
                "intervals.representatives is missing or empty");
        double weight_sum = 0.0;
        for (const JsonValue &w : reps.elements()) {
            if (!w.at("weight").isNumber())
                return Status::badConfig(
                    "intervals.representatives[].weight is missing "
                    "or not a number");
            weight_sum += w.at("weight").asDouble();
        }
        if (std::fabs(weight_sum - 1.0) > 1e-6)
            return Status::badConfig(
                "representative weights sum to ", weight_sum,
                ", not 1");
        const JsonValue &stats = ivl->at("stats");
        if (!stats.isArray() || stats.size() == 0)
            return Status::badConfig(
                "intervals.stats is missing or empty");
        for (const JsonValue &s : stats.elements()) {
            if (!s.at("name").isString())
                return Status::badConfig(
                    "interval stat row without a name");
            const std::string ctx =
                "stat '" + s.at("name").asString() + "'";
            // Error bars are the point of the reconstruction — a
            // document without them does not validate.
            for (const char *key : {"predicted", "error_bar"}) {
                if (!s.at(key).isNumber())
                    return Status::badConfig(
                        ctx, ": ", key,
                        " is missing or not a number");
            }
        }
    }
    return Status::ok();
}

} // namespace

Status
validateStatsDoc(const JsonValue &doc)
{
    if (!doc.isObject())
        return Status::badConfig("stats document is not a JSON object");
    if (doc.at("schema").asString() != kStatsSchemaName)
        return Status::badConfig("not a ", kStatsSchemaName,
                                 " document");
    const std::uint64_t version = doc.at("schema_version").asU64();
    if (version != kStatsSchemaVersion)
        return Status::unsupported("schema_version ", version,
                                   " (this build understands ",
                                   kStatsSchemaVersion, ")");

    const std::string &kind = doc.at("kind").asString();
    if (kind == "run")
        return checkRunBody(doc, true).withContext("run document");
    // Classify documents share the run-body schema minus the sim
    // section plus a "classify" summary block.
    if (kind == "classify")
        return checkClassifyBody(doc).withContext("classify document");
    if (kind == "serve")
        return checkServeBody(doc).withContext("serve document");
    if (kind == "metrics")
        return checkMetricsBody(doc).withContext("metrics document");
    if (kind == "sample")
        return checkSampleBody(doc).withContext("sample document");
    if (kind == "bench") {
        const JsonValue &table = doc.at("table");
        const JsonValue &headers = table.at("headers");
        if (!headers.isArray() || headers.size() == 0)
            return Status::badConfig(
                "bench document: missing table.headers");
        const JsonValue &rows = table.at("rows");
        if (!rows.isArray())
            return Status::badConfig(
                "bench document: missing table.rows");
        std::size_t i = 0;
        for (const JsonValue &row : rows.elements()) {
            if (!row.isArray() || row.size() != headers.size())
                return Status::badConfig(
                    "bench document: row ", i, " has ", row.size(),
                    " cells but there are ", headers.size(),
                    " headers");
            ++i;
        }
        return Status::ok();
    }
    if (kind == "suite" || kind == "classify-suite") {
        const JsonValue &rows = doc.at("rows");
        if (!rows.isArray())
            return Status::badConfig("suite document: missing rows");
        std::uint64_t errored = 0;
        std::size_t i = 0;
        for (const JsonValue &row : rows.elements()) {
            if (row.get("error")) {
                ++errored;
            } else {
                Status s = kind == "classify-suite"
                               ? checkClassifyBody(row)
                               : checkRunBody(row, true);
                if (!s.isOk())
                    return s.withContext("suite row " +
                                         std::to_string(i));
            }
            ++i;
        }
        const JsonValue *summary = doc.get("summary");
        if (!summary)
            return Status::badConfig("suite document: missing summary");
        if (summary->at("runs").asU64() != rows.size())
            return Status::badConfig(
                "suite summary.runs disagrees with rows");
        if (summary->at("errored").asU64() != errored)
            return Status::badConfig(
                "suite summary.errored disagrees with rows");
        return Status::ok();
    }
    return Status::badConfig("unknown document kind '", kind, "'");
}

} // namespace ccm::obs
