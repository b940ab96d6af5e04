/**
 * @file
 * Stats sink: one schema-versioned document path from simulation
 * results (MemStats, SimResult, per-set heatmaps, interval series,
 * event traces) to text, JSON, or CSV output.
 *
 * Everything serializes through a JsonValue document built by the
 * builders below; the text and CSV writers are flattenings of that
 * same document, so the three formats can never disagree about names
 * or values.  Field names come from MemStats::forEachField /
 * forEachDerived — the sink never invents counter names.
 *
 * Schema (docs/OBSERVABILITY.md): every document carries
 *   "schema": "ccm-stats", "schema_version": kStatsSchemaVersion,
 *   "kind": "run" | "suite"
 * and validateStatsDoc() checks structural invariants (including
 * sum-of-interval-deltas == final aggregates) for both the tests and
 * `ccm-report --check`.
 */

#ifndef CCM_OBS_SINK_HH
#define CCM_OBS_SINK_HH

#include <string>
#include <string_view>

#include "common/cli.hh"
#include "common/status.hh"
#include "common/table.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sample/engine.hh"
#include "sim/parallel.hh"

namespace ccm::obs
{

/** Version stamped into every document; bump on breaking changes. */
inline constexpr std::uint64_t kStatsSchemaVersion = 1;

/** Document identifier stamped into every document. */
inline constexpr const char *kStatsSchemaName = "ccm-stats";

/** Output encodings the sink can write. */
enum class StatsFormat
{
    Text, ///< flattened "path value" lines
    Json, ///< the document itself
    Csv,  ///< flattened "path,value" lines with a header row
};

/** @return "text" / "json" / "csv". */
const char *toString(StatsFormat f);

/** Parse a --stats-format argument ("text" | "json" | "csv"). */
Expected<StatsFormat> parseStatsFormat(std::string_view name);

// ---- Section builders ---------------------------------------------

/** {"counters": {...}, "derived": {...}} via forEachField/Derived. */
JsonValue memStatsToJson(const MemStats &stats);

/** {"cycles", "instructions", "mem_refs", "ipc"}. */
JsonValue simResultToJson(const SimResult &sim);

/**
 * Heatmap section: per-set arrays plus a "top_sets" digest of the
 * @p top_sets busiest sets by L1 misses (ties broken by set index).
 */
JsonValue setHistogramsToJson(const SetHistograms &heat,
                              std::size_t top_sets = 8);

/**
 * Interval time-series section of a finished run's windows:
 * {"every", "samples": [...]}.  Every batch document writes its
 * windows through this.
 */
JsonValue intervalSamplesToJson(
    Count every, const std::vector<IntervalSample> &samples);

/**
 * The same section from a live rolling sampler (the ccm-serve
 * streams, which publish windows mid-run), plus "dropped_samples"
 * once its rolling cap has evicted any.
 */
JsonValue intervalsToJson(const IntervalSampler &sampler);

/** Event-trace section: rate-limit totals + the recorded events. */
JsonValue eventsToJson(const ClassifyEventTrace &trace);

// ---- Document builders --------------------------------------------

/**
 * Build a kind:"run" document for one finished timing run, its
 * interval windows (out.intervals) included when it has any.
 * @p events is an optional section (nullptr or an empty trace =
 * omit).  Callers may set() extra top-level fields (e.g. "config")
 * afterwards.
 */
JsonValue runDocument(const std::string &workload, const RunOutput &out,
                      const ClassifyEventTrace *events = nullptr);

/**
 * Build a kind:"suite" document: one row per timing run, errored rows
 * as {"workload", "error"} stubs, and a runs/errored/wall-time
 * summary.
 */
JsonValue suiteDocument(const SuiteReport &report);

/**
 * Build a kind:"classify-suite" document: the same rows/summary shape
 * as kind:"suite", with classify bodies, no sim section, and each ok
 * row's records_per_sec.
 */
JsonValue suiteDocument(const ClassifySuiteReport &report);

/**
 * Build a kind:"classify" document for one sharded classification
 * run.  Deliberately omits the shard count: like --jobs, --shards is
 * an execution knob, and the document is byte-identical for every K
 * (the ci.sh sharded-determinism gate diffs exactly these bytes).
 */
JsonValue classifyDocument(const std::string &workload,
                           const ShardedClassifyResult &out);

/**
 * Build a kind:"sample" document for one sampling analysis
 * (src/sample): the sampling parameters, the miss-ratio curve, the
 * geometry recommendation, the interval reconstruction with its
 * per-stat error bars, and — when the report carries exact
 * references — predicted-vs-exact error columns.  The wall_seconds_*
 * fields are the only nondeterministic ones (same strip pattern as
 * every other document's wall_seconds).
 */
JsonValue sampleDocument(const std::string &workload,
                         const sample::SampleReport &rep);

/** {"headers": [...], "rows": [[...], ...]} from a result table. */
JsonValue tableToJson(const TextTable &table);

/**
 * Build a kind:"bench" document wrapping one result table of a
 * benchmark binary (the figure/table rows it prints).
 */
JsonValue benchDocument(const std::string &bench_name,
                        const TextTable &table,
                        const std::string &note = "");

/**
 * Build a kind:"metrics" document from @p registry (default: the
 * process-wide registry): the schema header plus a "metrics" array as
 * rendered by MetricsRegistry::metricsJson().  Served by the daemon's
 * `metrics json` control command and rendered by ccm-report.
 */
JsonValue metricsDocument(
    const MetricsRegistry &registry = MetricsRegistry::global());

/**
 * Bare document header ({"schema", "schema_version", "kind"}) for a
 * producer that assembles its own body — the ccm-serve daemon builds
 * kind:"serve" documents this way (section shapes documented in
 * docs/SERVING.md and enforced by validateStatsDoc).
 */
JsonValue statsDocumentHeader(const std::string &kind);

/**
 * Write @p bench_name's result table as BENCH_<bench_name>.json into
 * $CCM_BENCH_JSON_DIR (falling back to the working directory), so a
 * bench run leaves a machine-readable record next to its stdout.
 * @return the path written, or why it couldn't be.
 */
Expected<std::string> writeBenchJson(const std::string &bench_name,
                                     const TextTable &table,
                                     const std::string &note = "");

// ---- Writers ------------------------------------------------------

/** Write @p doc to @p os in @p format. */
void writeDocument(std::ostream &os, const JsonValue &doc,
                   StatsFormat format);

/** writeDocument to @p path ("-" = stdout). */
Status writeDocumentToFile(const std::string &path, const JsonValue &doc,
                           StatsFormat format);

/**
 * Where a tool's --stats-json / --stats-out / --stats-format send its
 * document.  One target per invocation: naming two different files
 * is a bad-config error, never a silently stale second file.
 */
struct StatsTarget
{
    std::string path; ///< empty = no document; "-" = stdout
    StatsFormat format = StatsFormat::Json;

    /** True for the three flags parseFlag takes. */
    static bool isFlag(std::string_view flag);

    /** Take the cursor's current stats flag and its value. */
    Status parseFlag(ArgCursor &args);

    /** writeDocumentToFile to this target. */
    Status
    write(const JsonValue &doc) const
    {
        return writeDocumentToFile(path, doc, format);
    }
};

// ---- Validation ---------------------------------------------------

/**
 * Check that @p doc is a well-formed ccm-stats document: schema name
 * and version, kind, required sections, heatmap array lengths, and —
 * when an intervals section is present — that the counter-wise sum of
 * every sample's deltas equals the aggregate counters.  Suite
 * documents are checked row by row.
 */
Status validateStatsDoc(const JsonValue &doc);

} // namespace ccm::obs

#endif // CCM_OBS_SINK_HH
