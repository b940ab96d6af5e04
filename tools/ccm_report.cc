/**
 * @file
 * ccm-report — render and validate ccm-stats documents written by
 * ccm-sim --stats-json, the ccm-serve control socket ("stats",
 * "metrics json"), and the bench binaries' BENCH_*.json files.
 *
 *   ccm-report out.json               human-readable report
 *   ccm-report --top 16 out.json      more hot sets
 *   ccm-report --check out.json       validate only
 *   ccm-report --flat out.json        flattened "path value" lines
 *
 * Exit status separates input damage from schema violations so
 * scripts can triage: 0 = valid document, 1 = usage error or
 * unreadable/unparseable input (a truncated or interleaved JSON file
 * lands here — the bytes never were one document), 2 = parseable JSON
 * that is not a valid ccm-stats document.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/sink.hh"

namespace
{

using namespace ccm;
using obs::JsonValue;

void
usage()
{
    std::cout <<
        "usage: ccm-report [options] FILE\n"
        "  --check        validate only (exit 0 valid, 2 invalid)\n"
        "  --flat         print the flattened \"path value\" form\n"
        "  --top N        hot sets to list (default 8)\n"
        "FILE may be '-' for stdin.\n"
        "exit: 0 valid, 1 usage or unreadable/unparseable input,\n"
        "      2 invalid ccm-stats document\n";
}

/** Fixed-precision rendering for percentage-ish values. */
std::string
num(double v, int precision = 2)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

std::string
u64str(const JsonValue &v)
{
    return std::to_string(v.asU64());
}

void
renderRunBody(const JsonValue &doc, std::size_t top_n)
{
    const JsonValue &sim = doc.at("sim");
    if (sim.isObject()) {
        std::cout << "cycles            " << sim.at("cycles").asU64()
                  << "\n"
                  << "instructions      "
                  << sim.at("instructions").asU64() << "\n"
                  << "memory refs       " << sim.at("mem_refs").asU64()
                  << "\n"
                  << "ipc               "
                  << num(sim.at("ipc").asDouble(), 3) << "\n";
    }

    const JsonValue &derived = doc.at("mem").at("derived");
    const JsonValue &counters = doc.at("mem").at("counters");
    std::cout << "L1 hit rate       "
              << num(derived.at("l1_hit_rate_pct").asDouble()) << "%\n"
              << "miss rate         "
              << num(derived.at("miss_rate_pct").asDouble()) << "%\n"
              << "conflict share    "
              << num(derived.at("conflict_share_pct").asDouble())
              << "% of L1 misses ("
              << counters.at("conflict_misses").asU64() << " conflict, "
              << counters.at("capacity_misses").asU64()
              << " capacity)\n";

    if (const JsonValue *heat = doc.get("heatmap")) {
        const JsonValue &top = heat->at("top_sets");
        std::cout << "\n-- top hot sets (of "
                  << heat->at("sets").asU64() << ") --\n";
        if (top.size() == 0) {
            std::cout << "(no set recorded a miss)\n";
        } else {
            TextTable t({"set", "l1 misses", "evictions", "mct lookups",
                         "mct conflicts"});
            std::size_t shown = 0;
            for (const JsonValue &row : top.elements()) {
                if (shown++ >= top_n)
                    break;
                std::size_t r =
                    t.addRow(u64str(row.at("set")));
                t.set(r, 1, u64str(row.at("l1_misses")));
                t.set(r, 2, u64str(row.at("l1_evictions")));
                t.set(r, 3, u64str(row.at("mct_lookups")));
                t.set(r, 4, u64str(row.at("mct_conflicts")));
            }
            t.print(std::cout);
        }
    }

    if (const JsonValue *intervals = doc.get("intervals")) {
        const JsonValue &samples = intervals->at("samples");
        std::cout << "\n-- phases (every "
                  << intervals->at("every").asU64() << " refs, "
                  << samples.size() << " windows) --\n";
        TextTable t({"window", "refs", "miss%", "conflict%"});
        for (const JsonValue &s : samples.elements()) {
            const std::uint64_t first = s.at("first_ref").asU64();
            const std::uint64_t last = s.at("last_ref").asU64();
            std::size_t r = t.addRow(std::to_string(first) + "-" +
                                     std::to_string(last));
            t.set(r, 1, std::to_string(last - first + 1));
            t.set(r, 2,
                  num(s.at("derived").at("miss_rate_pct").asDouble()));
            t.set(r, 3,
                  num(s.at("derived")
                          .at("conflict_share_pct")
                          .asDouble()));
        }
        t.print(std::cout);
    }

    if (const JsonValue *events = doc.get("events")) {
        std::cout << "\n-- classification events --\n"
                  << "seen " << events->at("seen").asU64()
                  << ", recorded " << events->at("recorded").asU64()
                  << ", dropped " << events->at("dropped").asU64()
                  << " (sampling 1/"
                  << events->at("sample_every").asU64() << ", cap "
                  << events->at("max_events").asU64() << ")\n";
    }
}

void
renderSuite(const JsonValue &doc)
{
    TextTable t({"workload", "status", "cycles", "ipc", "miss%",
                 "conflict%"});
    for (const JsonValue &row : doc.at("rows").elements()) {
        std::size_t r = t.addRow(row.at("workload").asString());
        if (const JsonValue *err = row.get("error")) {
            t.set(r, 1, "ERROR");
            t.set(r, 2, "-");
            t.set(r, 3, "-");
            t.set(r, 4, "-");
            t.set(r, 5, "-");
            (void)err;
            continue;
        }
        const JsonValue &derived = row.at("mem").at("derived");
        t.set(r, 1, "ok");
        t.set(r, 2, u64str(row.at("sim").at("cycles")));
        t.set(r, 3, num(row.at("sim").at("ipc").asDouble(), 3));
        t.set(r, 4, num(derived.at("miss_rate_pct").asDouble()));
        t.set(r, 5, num(derived.at("conflict_share_pct").asDouble()));
    }
    t.print(std::cout);

    const JsonValue &summary = doc.at("summary");
    std::cout << summary.at("runs").asU64() -
                     summary.at("errored").asU64()
              << "/" << summary.at("runs").asU64() << " runs ok, "
              << summary.at("errored").asU64() << " errored\n";

    for (const JsonValue &row : doc.at("rows").elements()) {
        if (const JsonValue *err = row.get("error"))
            CCM_LOG_ERROR(row.at("workload").asString(), ": ",
                          err->asString());
    }
}

void
renderClassifyBody(const JsonValue &doc, std::size_t top_n)
{
    const JsonValue &cls = doc.at("classify");
    std::cout << "references        " << cls.at("references").asU64()
              << "\n"
              << "L1 misses         " << cls.at("misses").asU64()
              << "\n";
    // The rest of the body (mem/heatmap/intervals) is shared with
    // kind:"run"; renderRunBody skips the absent sim section.
    renderRunBody(doc, top_n);
}

void
renderClassifySuite(const JsonValue &doc)
{
    TextTable t({"workload", "status", "refs", "miss%", "conflict%",
                 "wall ms", "Mrec/s"});
    for (const JsonValue &row : doc.at("rows").elements()) {
        std::size_t r = t.addRow(row.at("workload").asString());
        if (row.get("error") != nullptr) {
            t.set(r, 1, "ERROR");
            for (std::size_t c = 2; c <= 6; ++c)
                t.set(r, c, "-");
            continue;
        }
        const JsonValue &derived = row.at("mem").at("derived");
        t.set(r, 1, "ok");
        t.set(r, 2, u64str(row.at("classify").at("references")));
        t.set(r, 3, num(derived.at("miss_rate_pct").asDouble()));
        t.set(r, 4, num(derived.at("conflict_share_pct").asDouble()));
        t.set(r, 5,
              num(row.at("wall_seconds").asDouble() * 1e3, 1));
        const JsonValue *rps = row.get("records_per_sec");
        t.set(r, 6,
              rps != nullptr ? num(rps->asDouble() / 1e6, 1)
                             : std::string("-"));
    }
    t.print(std::cout);

    const JsonValue &summary = doc.at("summary");
    std::cout << summary.at("runs").asU64() -
                     summary.at("errored").asU64()
              << "/" << summary.at("runs").asU64() << " runs ok, "
              << summary.at("errored").asU64() << " errored\n";

    for (const JsonValue &row : doc.at("rows").elements()) {
        if (const JsonValue *err = row.get("error"))
            CCM_LOG_ERROR(row.at("workload").asString(), ": ",
                          err->asString());
    }
}

void
renderServe(const JsonValue &doc)
{
    const JsonValue &daemon = doc.at("daemon");
    std::cout << "generation        " << daemon.at("generation").asU64()
              << (daemon.at("draining").asBool() ? " (draining)" : "")
              << "\n"
              << "streams           "
              << daemon.at("streams_total").asU64() << " admitted, "
              << daemon.at("streams_active").asU64() << " active, "
              << daemon.at("streams_done").asU64() << " done, "
              << daemon.at("streams_failed").asU64() << " failed\n"
              << "records           "
              << daemon.at("records_total").asU64() << "\n";

    TextTable t({"stream", "state", "records", "refs", "miss%",
                 "defects"});
    for (const JsonValue &s : doc.at("streams").elements()) {
        std::size_t r = t.addRow(s.at("name").asString());
        t.set(r, 1, s.at("state").asString());
        t.set(r, 2, u64str(s.at("records")));
        t.set(r, 3, u64str(s.at("refs")));
        const JsonValue *mem = s.get("mem");
        if (!mem)
            mem = s.get("mem_live");
        t.set(r, 4,
              mem != nullptr
                  ? num(mem->at("derived")
                            .at("miss_rate_pct")
                            .asDouble())
                  : std::string("-"));
        const JsonValue &frames = s.at("frames");
        const std::uint64_t defects =
            frames.at("malformed_frames").asU64() +
            frames.at("resync_events").asU64() +
            frames.at("bad_records").asU64();
        t.set(r, 5, std::to_string(defects));
    }
    t.print(std::cout);

    for (const JsonValue &s : doc.at("streams").elements()) {
        if (const JsonValue *err = s.get("error"))
            CCM_LOG_ERROR(s.at("name").asString(), ": ",
                          err->asString());
    }
}

void
renderBench(const JsonValue &doc)
{
    const JsonValue &table = doc.at("table");
    const JsonValue &headers = table.at("headers");
    std::vector<std::string> head;
    for (const JsonValue &h : headers.elements())
        head.push_back(h.asString());
    TextTable t(head);
    for (const JsonValue &row : table.at("rows").elements()) {
        std::vector<std::string> cells;
        for (const JsonValue &c : row.elements())
            cells.push_back(c.asString());
        if (cells.empty())
            continue;
        std::size_t r = t.addRow(cells[0]);
        for (std::size_t c = 1; c < cells.size(); ++c)
            t.set(r, c, cells[c]);
    }
    t.print(std::cout);
    if (const JsonValue *note = doc.get("note")) {
        if (note->isString() && !note->asString().empty())
            std::cout << note->asString() << "\n";
    }
}

/** Human form of a byte capacity (power-of-two grid values). */
std::string
capStr(std::uint64_t bytes)
{
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        return std::to_string(bytes / (1024 * 1024)) + "MB";
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "KB";
    return std::to_string(bytes) + "B";
}

void
renderSample(const JsonValue &doc)
{
    const JsonValue &sampling = doc.at("sampling");
    std::cout << "sampling rate     "
              << num(sampling.at("rate_final").asDouble() * 100.0, 3)
              << "% (" << sampling.at("variant").asString()
              << ", seed " << sampling.at("seed").asU64() << ")\n"
              << "references        "
              << sampling.at("sampled_refs").asU64() << " sampled of "
              << sampling.at("total_refs").asU64() << " ("
              << sampling.at("lines_sampled").asU64()
              << " distinct lines)\n";

    std::cout << "\n-- miss-ratio curve --\n";
    const bool exact = doc.get("error") != nullptr;
    TextTable mrc(exact ? std::vector<std::string>{"capacity",
                                                   "miss ratio",
                                                   "exact", "abs err"}
                        : std::vector<std::string>{"capacity",
                                                   "miss ratio"});
    for (const JsonValue &p : doc.at("mrc").at("points").elements()) {
        std::size_t r =
            mrc.addRow(capStr(p.at("capacity_bytes").asU64()));
        mrc.set(r, 1, num(p.at("miss_ratio").asDouble(), 4));
        if (exact) {
            mrc.set(r, 2, num(p.at("exact_miss_ratio").asDouble(), 4));
            mrc.set(r, 3, num(p.at("abs_error").asDouble(), 4));
        }
    }
    mrc.print(std::cout);

    const JsonValue &rec = doc.at("recommendation");
    std::cout << "\nrecommendation    buf=" << rec.at("buf_entries").asU64()
              << " " << rec.at("rationale").asString() << "\n";

    if (const JsonValue *ivl = doc.get("intervals")) {
        std::cout << "\n-- representative intervals ("
                  << ivl->at("clusters").asU64() << " of "
                  << ivl->at("windows").asU64() << " windows of "
                  << ivl->at("window_refs").asU64() << " refs, "
                  << num(ivl->at("confidence").asDouble() * 100.0, 0)
                  << "% confidence) --\n";
        TextTable reps({"window", "weight", "members", "refs"});
        for (const JsonValue &w :
             ivl->at("representatives").elements()) {
            std::size_t r = reps.addRow(
                u64str(w.at("first_ref")) + "-" +
                u64str(w.at("last_ref")));
            reps.set(r, 1, num(w.at("weight").asDouble(), 3));
            reps.set(r, 2, u64str(w.at("cluster_size")));
            reps.set(r, 3, u64str(w.at("refs")));
        }
        reps.print(std::cout);

        std::cout << "\n-- reconstructed stats --\n";
        TextTable st(exact
                         ? std::vector<std::string>{"stat",
                                                    "predicted",
                                                    "+/-", "exact",
                                                    "abs err"}
                         : std::vector<std::string>{"stat",
                                                    "predicted",
                                                    "+/-"});
        for (const JsonValue &s : ivl->at("stats").elements()) {
            // Skip the always-zero timing-only counters.
            if (s.at("predicted").asDouble() == 0.0 &&
                (!exact || s.at("exact").asU64() == 0))
                continue;
            std::size_t r = st.addRow(s.at("name").asString());
            st.set(r, 1, num(s.at("predicted").asDouble(), 0));
            st.set(r, 2, num(s.at("error_bar").asDouble(), 0));
            if (exact) {
                st.set(r, 3, u64str(s.at("exact")));
                st.set(r, 4, num(s.at("abs_error").asDouble(), 0));
            }
        }
        st.print(std::cout);
    }

    if (const JsonValue *err = doc.get("error")) {
        std::cout << "\nMRC error         mae "
                  << num(err->at("mrc_mae").asDouble(), 4) << ", max "
                  << num(err->at("mrc_max_error").asDouble(), 4)
                  << "\n";
        if (doc.get("intervals") != nullptr)
            std::cout << "stat error        max "
                      << num(err->at("max_stat_rel_error").asDouble() *
                                 100.0,
                             2)
                      << "% relative\n";
    }
}

void
renderMetrics(const JsonValue &doc)
{
    TextTable t({"metric", "type", "value", "p50", "p95", "p99"});
    for (const JsonValue &m : doc.at("metrics").elements()) {
        std::size_t r = t.addRow(m.at("name").asString());
        const std::string &type = m.at("type").asString();
        t.set(r, 1, type);
        if (type == "histogram") {
            t.set(r, 2,
                  u64str(m.at("count")) + " obs, sum " +
                      u64str(m.at("sum")));
            t.set(r, 3, num(m.at("p50").asDouble(), 1));
            t.set(r, 4, num(m.at("p95").asDouble(), 1));
            t.set(r, 5, num(m.at("p99").asDouble(), 1));
        } else {
            t.set(r, 2,
                  type == "counter"
                      ? u64str(m.at("value"))
                      : std::to_string(m.at("value").asI64()));
            t.set(r, 3, "-");
            t.set(r, 4, "-");
            t.set(r, 5, "-");
        }
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool check_only = false;
    bool flat = false;
    std::size_t top_n = 8;
    std::string path;

    ccm::ArgCursor args(argc, argv);
    while (args.next()) {
        const std::string &a = args.flag();
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--check") {
            check_only = true;
        } else if (a == "--flat") {
            flat = true;
        } else if (a == "--top") {
            ccm::Status s = args.number(top_n);
            if (!s.isOk()) {
                CCM_LOG_ERROR(s.toString());
                return 1;
            }
        } else if (!a.empty() && a[0] == '-' && a != "-") {
            CCM_LOG_ERROR("unknown option '", a, "'");
            usage();
            return 1;
        } else if (path.empty()) {
            path = a;
        } else {
            CCM_LOG_ERROR("only one FILE argument is accepted");
            return 1;
        }
    }
    if (path.empty()) {
        CCM_LOG_ERROR("missing FILE argument");
        usage();
        return 1;
    }

    std::string text;
    if (path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        std::ifstream in(path);
        if (!in) {
            CCM_LOG_ERROR("cannot open '", path, "'");
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    // Parse failures are input damage (truncated writes, interleaved
    // concurrent writers), not schema violations: exit 1.
    ccm::Expected<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok()) {
        CCM_LOG_ERROR(parsed.status().toString());
        return 1;
    }
    const JsonValue &doc = parsed.value();

    ccm::Status valid = ccm::obs::validateStatsDoc(doc);
    if (!valid.isOk()) {
        CCM_LOG_ERROR(valid.toString());
        return 2;
    }
    if (check_only) {
        std::cout << path << ": valid ccm-stats document (schema v"
                  << doc.at("schema_version").asU64() << ")\n";
        return 0;
    }
    if (flat) {
        ccm::obs::writeDocument(std::cout, doc,
                                ccm::obs::StatsFormat::Text);
        return 0;
    }

    const std::string &kind = doc.at("kind").asString();
    std::string arch = doc.at("arch").isString()
                           ? doc.at("arch").asString()
                           : std::string("?");
    if (kind == "run") {
        std::cout << "== ccm-report: "
                  << doc.at("workload").asString() << " on " << arch
                  << " (run) ==\n";
        renderRunBody(doc, top_n);
    } else if (kind == "serve") {
        const JsonValue &daemon = doc.at("daemon");
        std::cout << "== ccm-report: ccm-serve on "
                  << daemon.at("arch").asString() << " ==\n";
        renderServe(doc);
    } else if (kind == "suite") {
        std::cout << "== ccm-report: suite on " << arch << " ==\n";
        renderSuite(doc);
    } else if (kind == "classify") {
        std::cout << "== ccm-report: "
                  << doc.at("workload").asString() << " on " << arch
                  << " (classify) ==\n";
        renderClassifyBody(doc, top_n);
    } else if (kind == "classify-suite") {
        std::cout << "== ccm-report: classify suite on " << arch
                  << " ==\n";
        renderClassifySuite(doc);
    } else if (kind == "bench") {
        std::cout << "== ccm-report: bench "
                  << doc.at("bench").asString() << " ==\n";
        renderBench(doc);
    } else if (kind == "sample") {
        std::cout << "== ccm-report: "
                  << doc.at("workload").asString() << " on " << arch
                  << " (sample) ==\n";
        renderSample(doc);
    } else if (kind == "metrics") {
        std::cout << "== ccm-report: metrics ==\n";
        renderMetrics(doc);
    } else {
        // validateStatsDoc rejects unknown kinds, so this is a new
        // kind this renderer predates: say so rather than guessing.
        CCM_LOG_ERROR("no renderer for document kind '", kind,
                      "' (try --flat)");
        return 2;
    }
    return 0;
}
