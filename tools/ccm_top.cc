/**
 * @file
 * ccm-top — live monitor for a running ccm-serve daemon
 * (docs/SERVING.md, docs/OBSERVABILITY.md).
 *
 * Polls the daemon's control socket, combining the kind:"serve" stats
 * document ("stats") with the kind:"metrics" telemetry document
 * ("metrics json") into one refreshing terminal dashboard:
 *
 *   ccm-top --control /run/ccm-ctl.sock --interval-ms 1000
 *
 * Each frame shows the daemon summary (version, uptime, generation,
 * drain state), stream totals with a records/s rate computed from the
 * delta between polls, classify/decode latency percentiles from the
 * histogram metrics, and a per-stream table of the active pipelines.
 *
 * --once prints a single machine-readable "key value" snapshot and
 * exits — the mode CI uses to assert the telemetry plane end to end
 * without a tty:
 *
 *   ccm-top --control /run/ccm-ctl.sock --once
 *
 * Exit status: 0 on success, 1 usage errors, 2 when the control
 * socket cannot be reached or a reply fails to parse.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "obs/json.hh"
#include "serve/client.hh"

namespace
{

using namespace ccm;

void
usage()
{
    std::cout <<
        "usage: ccm-top --control PATH [options]\n"
        "options:\n"
        "  --interval-ms N   poll period (default 1000)\n"
        "  --iterations N    stop after N frames (default: forever)\n"
        "  --once            one plain-text snapshot, no refresh\n"
        "  --no-clear        do not clear the screen between frames\n"
        "  --timeout-ms N    per-request reply timeout (default 5000)\n"
        "  --log-level L     trace|debug|info|warn|error|off\n";
}

struct Options
{
    std::string controlPath;
    std::int64_t intervalMs = 1000;
    std::uint64_t iterations = 0; ///< 0 = run until interrupted
    bool once = false;
    bool clearScreen = true;
    serve::ClientOptions client;
};

/** One poll of the daemon: both documents, parsed. */
struct Sample
{
    obs::JsonValue stats;   ///< kind:"serve"
    obs::JsonValue metrics; ///< kind:"metrics"
};

Expected<obs::JsonValue>
fetchDocument(const Options &o, const std::string &command)
{
    auto reply =
        serve::controlRequest(o.controlPath, command, o.client);
    if (!reply.ok())
        return reply.status().withContext("control '" + command +
                                          "'");
    auto doc = obs::JsonValue::parse(reply.value());
    if (!doc.ok())
        return doc.status().withContext("reply to '" + command + "'");
    return doc.take();
}

Expected<Sample>
poll(const Options &o)
{
    Sample s;
    auto stats = fetchDocument(o, "stats");
    if (!stats.ok())
        return stats.status();
    s.stats = stats.take();
    auto metrics = fetchDocument(o, "metrics json");
    if (!metrics.ok())
        return metrics.status();
    s.metrics = metrics.take();
    return s;
}

/** Find one metric entry by name; nullptr when absent. */
const obs::JsonValue *
findMetric(const obs::JsonValue &doc, std::string_view name)
{
    const obs::JsonValue *arr = doc.get("metrics");
    if (arr == nullptr || !arr->isArray())
        return nullptr;
    for (const auto &m : arr->elements()) {
        if (m.at("name").asString() == name)
            return &m;
    }
    return nullptr;
}

std::string
fmtDouble(double v, int prec = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

std::string
fmtUptime(double seconds)
{
    const auto total = static_cast<std::uint64_t>(seconds);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu:%02llu:%02llu",
                  static_cast<unsigned long long>(total / 3600),
                  static_cast<unsigned long long>(total / 60 % 60),
                  static_cast<unsigned long long>(total % 60));
    return buf;
}

/** "p50=12 p95=340 p99=801 (n=5021)" for a histogram metric. */
std::string
fmtHistogram(const obs::JsonValue *m)
{
    if (m == nullptr)
        return "-";
    return "p50=" + fmtDouble(m->at("p50").asDouble(), 0) +
           " p95=" + fmtDouble(m->at("p95").asDouble(), 0) +
           " p99=" + fmtDouble(m->at("p99").asDouble(), 0) +
           " (n=" + std::to_string(m->at("count").asU64()) + ")";
}

void
renderFrame(const Options &o, const Sample &s, double records_per_s)
{
    const obs::JsonValue &daemon = s.stats.at("daemon");
    std::string out;
    if (o.clearScreen)
        out += "\x1b[2J\x1b[H";

    out += "ccm-top — ccm-serve " +
           daemon.at("version").asString() + "  up " +
           fmtUptime(daemon.at("uptime_seconds").asDouble()) +
           "  arch " + daemon.at("arch").asString() + "  gen " +
           std::to_string(daemon.at("config_generation").asU64()) +
           (daemon.at("draining").asBool() ? "  DRAINING" : "") +
           "\n";

    out += "streams: " +
           std::to_string(daemon.at("streams_active").asU64()) +
           " active, " +
           std::to_string(daemon.at("streams_done").asU64()) +
           " done, " +
           std::to_string(daemon.at("streams_failed").asU64()) +
           " failed, " +
           std::to_string(daemon.at("streams_refused").asU64()) +
           " refused (" +
           std::to_string(daemon.at("streams_total").asU64()) +
           " admitted)\n";

    out += "records: " +
           std::to_string(daemon.at("records_total").asU64());
    if (records_per_s >= 0.0)
        out += "  rate " + fmtDouble(records_per_s, 0) + "/s";
    const obs::JsonValue *shed =
        findMetric(s.metrics, "ccm_serve_records_shed_total");
    if (shed != nullptr)
        out += "  shed " + std::to_string(shed->at("value").asU64());
    const obs::JsonValue *depth =
        findMetric(s.metrics, "ccm_serve_queue_depth_records");
    if (depth != nullptr)
        out += "  queue depth " +
               std::to_string(depth->at("value").asI64());
    out += "\n";

    out += "latency (us): classify " +
           fmtHistogram(
               findMetric(s.metrics, "ccm_serve_batch_classify_us")) +
           "  decode " +
           fmtHistogram(
               findMetric(s.metrics, "ccm_serve_frame_decode_us")) +
           "\n\n";

    out += "  ID  STATE     RECORDS     SHED  GEN  NAME\n";
    const obs::JsonValue *streams = s.stats.get("streams");
    if (streams != nullptr) {
        for (const auto &st : streams->elements()) {
            char line[160];
            std::snprintf(
                line, sizeof line,
                "%4llu  %-8s %8llu %8llu %4llu  %s\n",
                static_cast<unsigned long long>(
                    st.at("id").asU64()),
                st.at("state").asString().c_str(),
                static_cast<unsigned long long>(
                    st.at("records").asU64()),
                static_cast<unsigned long long>(
                    st.at("queue").at("shed_records").asU64()),
                static_cast<unsigned long long>(
                    st.at("generation").asU64()),
                st.at("name").asString().c_str());
            out += line;
        }
    }

    // One write so a frame never interleaves with log lines.
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fflush(stdout);
}

/**
 * --once: stable "key value" lines, one fact per line, so shell tests
 * can grep without parsing JSON.
 */
void
renderOnce(const Sample &s)
{
    const obs::JsonValue &daemon = s.stats.at("daemon");
    std::string out;
    out += "version " + daemon.at("version").asString() + "\n";
    out += "uptime_seconds " +
           fmtDouble(daemon.at("uptime_seconds").asDouble(), 3) +
           "\n";
    out += "config_generation " +
           std::to_string(daemon.at("config_generation").asU64()) +
           "\n";
    out += "draining " +
           std::string(daemon.at("draining").asBool() ? "true"
                                                      : "false") +
           "\n";
    for (const char *key :
         {"streams_total", "streams_active", "streams_done",
          "streams_failed", "streams_refused", "records_total"})
        out += std::string(key) + " " +
               std::to_string(daemon.at(key).asU64()) + "\n";

    const obs::JsonValue *arr = s.metrics.get("metrics");
    std::size_t n_metrics = 0;
    if (arr != nullptr && arr->isArray())
        n_metrics = arr->elements().size();
    out += "metrics " + std::to_string(n_metrics) + "\n";
    const obs::JsonValue *classify =
        findMetric(s.metrics, "ccm_serve_batch_classify_us");
    if (classify != nullptr) {
        out += "classify_p50_us " +
               fmtDouble(classify->at("p50").asDouble(), 1) + "\n";
        out += "classify_p99_us " +
               fmtDouble(classify->at("p99").asDouble(), 1) + "\n";
    }
    // Sampling-engine instruments (src/sample); present whenever the
    // daemon registered them, zero until an MRC pass runs.
    const obs::JsonValue *lines =
        findMetric(s.metrics, "ccm_sample_lines_sampled_total");
    if (lines != nullptr)
        out += "sample_lines_total " +
               std::to_string(lines->at("value").asU64()) + "\n";
    const obs::JsonValue *srate =
        findMetric(s.metrics, "ccm_sample_rate");
    if (srate != nullptr)
        out += "sample_rate_ppm " +
               std::to_string(srate->at("value").asI64()) + "\n";
    const obs::JsonValue *mrc =
        findMetric(s.metrics, "ccm_sample_mrc_build_us");
    if (mrc != nullptr)
        out += "sample_mrc_build_p50_us " +
               fmtDouble(mrc->at("p50").asDouble(), 1) + "\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fflush(stdout);
}

int
run(const Options &o)
{
    bool have_prev = false;
    std::uint64_t prev_records = 0;
    for (std::uint64_t frame = 0;; ++frame) {
        auto sample = poll(o);
        if (!sample.ok()) {
            CCM_LOG_ERROR(sample.status().toString());
            return 2;
        }
        if (o.once) {
            renderOnce(sample.value());
            return 0;
        }
        const std::uint64_t records = sample.value()
                                          .stats.at("daemon")
                                          .at("records_total")
                                          .asU64();
        double rate = -1.0;
        if (have_prev && o.intervalMs > 0)
            rate = static_cast<double>(records - prev_records) *
                   1000.0 / static_cast<double>(o.intervalMs);
        renderFrame(o, sample.value(), rate);
        prev_records = records;
        have_prev = true;
        if (o.iterations != 0 && frame + 1 >= o.iterations)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(o.intervalMs));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    ArgCursor args(argc, argv);
    while (args.next()) {
        const std::string &a = args.flag();
        Status s;
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--control") {
            s = args.value(o.controlPath);
        } else if (a == "--interval-ms") {
            s = args.number(o.intervalMs);
        } else if (a == "--iterations") {
            s = args.number(o.iterations);
        } else if (a == "--once") {
            o.once = true;
        } else if (a == "--no-clear") {
            o.clearScreen = false;
        } else if (a == "--timeout-ms") {
            s = args.number(o.client.ioTimeoutMs);
        } else if (a == "--log-level") {
            s = args.logLevel();
        } else {
            CCM_LOG_ERROR("unknown option '", a, "'");
            usage();
            return 1;
        }
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 1;
        }
    }
    if (o.controlPath.empty()) {
        CCM_LOG_ERROR("--control is required");
        usage();
        return 1;
    }
    return run(o);
}
