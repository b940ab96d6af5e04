/**
 * @file
 * perfbench_loadgen — the load generator of the serve-streams workload.
 * One process, kConnections connections, closed loop: each
 * connection sends one stream after another, and each stream is one
 * whole synthetic workload, drawn from gcc / tomcatv / compress / swim
 * by its index and the seed.  Sending continues until --seconds have
 * passed and at least kMinStreams streams were started.
 *
 *   perfbench_loadgen --socket in.sock --control ctl.sock --seed 7 \
 *       --refs 50000 --seconds 10 --out loadgen.json [--traced]
 *
 * The daemon keeps only its last 64 finished-stream reports, so the
 * generator asks for "stats" after every kHarvestEvery streams and
 * once more after the last send, keeping every retired stream's
 * report.  The clock stops at the reply that shows the last stream
 * retired.  --traced also waits, after each stream's end frame, for
 * the reply that shows that stream retired (serve.end_to_retire_ms).
 *
 * The output JSON holds, per stream, its timings (connect, time inside
 * sendRecords, connect to sendEnd returning) and the daemon's report
 * (state, sim, mem, queue and frame counters); perfbench/run.py checks
 * the reports and derives the metrics.  Exit status 0 when the run
 * completed (failed streams are recorded, not fatal), 1 on usage
 * errors, 2 when the daemon never reported every stream retired.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/sink.hh"
#include "serve/client.hh"
#include "spans.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;
using obs::JsonValue;
using perfbench::Clock;

const std::vector<std::string> kWorkloads = {"gcc", "tomcatv",
                                             "compress", "swim"};

constexpr std::size_t kConnections = 2;
constexpr std::size_t kMinStreams = 100;

/** Records per sendRecords call, so back-pressure shows per call. */
constexpr std::size_t kChunkRecords = 4096;

/** Well under the daemon's 64 retained reports, with two in flight. */
constexpr std::size_t kHarvestEvery = 32;

struct Options
{
    std::string socket;
    std::string control;
    std::uint64_t seed = 42;
    std::size_t refs = 50'000;
    double seconds = 10.0;
    std::string out;
    bool traced = false;
};

struct StreamResult
{
    std::string name;
    std::string workload;
    std::size_t records = 0;
    double startS = 0.0;
    double connectS = 0.0;
    double sendS = 0.0;
    double endS = 0.0;
    double retireS = -1.0; ///< --traced only
    std::string error;
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The daemon's reports of retired streams, gathered over the run. */
class Harvest
{
  public:
    Harvest(std::string control, Clock::time_point origin)
        : control_(std::move(control)), origin_(origin)
    {
    }

    /**
     * Ask for "stats" once and keep every retired stream's report.
     * Returns the reply time (seconds since the origin), or nullopt
     * when the request failed.
     */
    std::optional<double>
    poll()
    {
        auto reply = serve::controlRequest(control_, "stats");
        const double at =
            std::chrono::duration<double>(Clock::now() - origin_).count();
        if (!reply.ok())
            return std::nullopt;
        auto doc = JsonValue::parse(reply.value());
        if (!doc.ok())
            return std::nullopt;
        std::lock_guard<std::mutex> lock(mu_);
        ++polls_;
        daemon_ = doc.value().at("daemon");
        for (const JsonValue &s : doc.value().at("streams").elements()) {
            const std::string &state = s.at("state").asString();
            if (state != "done" && state != "failed")
                continue;
            const std::string &name = s.at("name").asString();
            if (reports_.count(name) == 0)
                reports_.emplace(name, Entry{reduce(s), at});
        }
        return at;
    }

    /** When a reply first showed stream @p name retired, if one did. */
    std::optional<double>
    retiredAt(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = reports_.find(name);
        if (it == reports_.end())
            return std::nullopt;
        return it->second.seenS;
    }

    JsonValue
    toJson() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        JsonValue reps = JsonValue::object();
        for (const auto &[name, e] : reports_)
            reps.set(name, e.report);
        JsonValue out = JsonValue::object();
        out.set("reports", std::move(reps));
        out.set("daemon", daemon_);
        out.set("stats_polls", JsonValue::uint(polls_));
        return out;
    }

  private:
    struct Entry
    {
        JsonValue report;
        double seenS = 0.0;
    };

    /** The parts of a stream report the benchmark checks or counts. */
    static JsonValue
    reduce(const JsonValue &s)
    {
        JsonValue r = JsonValue::object();
        for (const char *key : {"state", "records", "sim", "mem", "error"})
            if (s.get(key) != nullptr)
                r.set(key, s.at(key));
        r.set("queue_max_depth", s.at("queue").at("max_depth"));
        r.set("shed_records", s.at("queue").at("shed_records"));
        r.set("malformed_frames", s.at("frames").at("malformed_frames"));
        return r;
    }

    const std::string control_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::map<std::string, Entry> reports_;
    JsonValue daemon_ = JsonValue::object();
    std::size_t polls_ = 0;
};

class LoadGenerator
{
  public:
    LoadGenerator(const Options &o, const std::vector<VectorTrace> &inputs)
        : o_(o), inputs_(inputs), harvest_(o.control, origin_)
    {
    }

    /** Run the connections to completion; false if retire never shows. */
    bool
    run()
    {
        std::vector<std::thread> conns;
        for (std::size_t c = 0; c < kConnections; ++c)
            conns.emplace_back([this] { connectionLoop(); });
        for (std::thread &t : conns)
            t.join();

        // The clock stops at the reply showing every stream retired.
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
            const std::optional<double> at = harvest_.poll();
            if (at && allRetired()) {
                lastRetireS_ = *at;
                return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }

    JsonValue
    toJson() const
    {
        JsonValue streams = JsonValue::array();
        std::size_t records = 0;
        double first_connect = -1.0;
        for (const StreamResult &r : results_) {
            JsonValue s = JsonValue::object();
            s.set("name", JsonValue::str(r.name));
            s.set("workload", JsonValue::str(r.workload));
            s.set("records", JsonValue::uint(r.records));
            s.set("start_s", JsonValue::real(r.startS));
            s.set("connect_ms", JsonValue::real(r.connectS * 1e3));
            s.set("send_ms", JsonValue::real(r.sendS * 1e3));
            s.set("latency_ms",
                  JsonValue::real((r.endS - r.startS) * 1e3));
            if (r.retireS >= 0.0)
                s.set("end_to_retire_ms",
                      JsonValue::real((r.retireS - r.endS) * 1e3));
            if (!r.error.empty())
                s.set("error", JsonValue::str(r.error));
            streams.push(std::move(s));
            records += r.records;
            if (first_connect < 0.0 || r.startS < first_connect)
                first_connect = r.startS;
        }
        JsonValue out = harvest_.toJson();
        out.set("streams", std::move(streams));
        out.set("records", JsonValue::uint(records));
        out.set("first_connect_s", JsonValue::real(first_connect));
        out.set("last_retire_s", JsonValue::real(lastRetireS_));
        return out;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** Claim the next stream index, or nullopt when the run is over. */
    std::optional<std::size_t>
    claim()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_ >= kMinStreams && now() >= o_.seconds)
            return std::nullopt;
        return next_++;
    }

    bool
    allRetired() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        // A stream that failed on the client side may never have been
        // admitted; it is already a failed operation.
        for (const StreamResult &r : results_)
            if (r.error.empty() && !harvest_.retiredAt(r.name))
                return false;
        return true;
    }

    void
    connectionLoop()
    {
        while (const std::optional<std::size_t> index = claim()) {
            StreamResult r = sendStream(*index);
            bool harvest_now = false;
            {
                std::lock_guard<std::mutex> lock(mu_);
                results_.push_back(r);
                harvest_now = !o_.traced &&
                              results_.size() % kHarvestEvery == 0;
            }
            if (harvest_now)
                harvest_.poll();
        }
    }

    StreamResult
    sendStream(std::size_t index)
    {
        const std::size_t w =
            static_cast<std::size_t>(splitmix64(o_.seed + index) %
                                     kWorkloads.size());
        const std::vector<MemRecord> &recs = inputs_[w].records();
        StreamResult r;
        r.workload = kWorkloads[w];
        r.name = "pb-" + std::to_string(index) + "-" + r.workload;
        r.startS = now();
        auto connected = serve::ServeClient::connect(o_.socket, r.name);
        r.connectS = now() - r.startS;
        if (!connected.ok()) {
            r.error = connected.status().toString();
            r.endS = now();
            return r;
        }
        serve::ServeClient client = connected.take();
        for (std::size_t off = 0; off < recs.size();
             off += kChunkRecords) {
            const std::size_t n = std::min(kChunkRecords,
                                           recs.size() - off);
            const double t0 = now();
            Status s = client.sendRecords(recs.data() + off, n);
            r.sendS += now() - t0;
            if (!s.isOk()) {
                r.error = s.toString();
                break;
            }
            r.records += n;
        }
        if (r.error.empty()) {
            Status s = client.sendEnd();
            if (!s.isOk())
                r.error = s.toString();
        }
        r.endS = now();
        if (o_.traced && r.error.empty()) {
            const auto deadline = Clock::now() + std::chrono::seconds(10);
            while (!harvest_.retiredAt(r.name) && Clock::now() < deadline)
                harvest_.poll();
            r.retireS = harvest_.retiredAt(r.name).value_or(-1.0);
        }
        return r;
    }

    const Options &o_;
    const std::vector<VectorTrace> &inputs_;
    const Clock::time_point origin_ = Clock::now();
    Harvest harvest_;

    mutable std::mutex mu_;
    std::size_t next_ = 0;
    std::vector<StreamResult> results_;
    double lastRetireS_ = -1.0;
};

void
usage()
{
    std::cout << "usage: perfbench_loadgen --socket PATH --control PATH "
                 "--out FILE [--seed N]\n"
                 "                         [--refs N] [--seconds S] "
                 "[--traced]\n";
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
        if (a == "--socket")
            o.socket = val();
        else if (a == "--control")
            o.control = val();
        else if (a == "--seed")
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--refs")
            o.refs = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--out")
            o.out = val();
        else if (a == "--traced")
            o.traced = true;
        else {
            usage();
            return 1;
        }
    }
    if (o.socket.empty() || o.control.empty() || o.out.empty()) {
        usage();
        return 1;
    }

    // Inputs are generated before the clock starts, once per workload.
    std::vector<VectorTrace> inputs;
    for (const std::string &w : kWorkloads) {
        auto wl = makeWorkloadChecked(w, o.refs, o.seed);
        if (!wl.ok()) {
            std::cerr << "perfbench_loadgen: " << wl.status().toString()
                      << "\n";
            return 1;
        }
        inputs.push_back(VectorTrace::capture(*wl.value()));
    }

    LoadGenerator gen(o, inputs);
    const bool retired = gen.run();
    Status s = obs::writeDocumentToFile(o.out, gen.toJson(),
                                        obs::StatsFormat::Json);
    if (!s.isOk()) {
        std::cerr << "perfbench_loadgen: " << s.toString() << "\n";
        return 1;
    }
    return retired ? 0 : 2;
}
