#include "serve/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/version.hh"
#include "obs/sink.hh"
#include "obs/span.hh"
#include "serve/telemetry.hh"

namespace ccm::serve
{

namespace
{

constexpr int kReapPeriodMs = 100;            ///< the one fixed tick
constexpr std::int64_t kControlReadMs = 1000; ///< command-line deadline

std::int64_t
nowMillis()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** poll() timeout until @p deadline; 0, never "forever", once past. */
int
millisUntil(std::int64_t deadline)
{
    return static_cast<int>(
        std::max<std::int64_t>(0, deadline - nowMillis()));
}

/** Bind + listen a nonblocking unix-domain socket at @p path. */
Expected<int>
listenUnix(const std::string &path)
{
    if (path.empty())
        return Status::badConfig("socket path is empty");
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return Status::badConfig("socket path too long: ", path);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::ioError("socket(): ", errnoString(errno));

    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        Status s = Status::ioError("bind ", path, ": ",
                                   errnoString(errno));
        ::close(fd);
        return s;
    }
    if (::listen(fd, 64) < 0) {
        Status s = Status::ioError("listen ", path, ": ",
                                   errnoString(errno));
        ::close(fd);
        ::unlink(path.c_str());
        return s;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
}

/** Blocking send-all with a poll timeout per chunk. */
bool
sendAll(int fd, const void *data, std::size_t n, int timeout_ms)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    std::size_t off = 0;
    while (off < n) {
        pollfd pf{fd, POLLOUT, 0};
        const int pr = ::poll(&pf, 1, timeout_ms);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr <= 0)
            return false;
        const ssize_t w =
            ::send(fd, p + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace

/**
 * Frame sink for one ingest connection: admits the stream at hello,
 * pushes records frames into its queue.  A connection that sends
 * records before a hello is a protocol violation and is dropped.
 */
struct ConnectionSink final : FrameSink
{
    ServeDaemon &daemon;
    int fd;
    std::shared_ptr<StreamPipeline> pipe;
    Status admitError;
    bool recordsBeforeHello = false;

    ConnectionSink(ServeDaemon &d, int fd_in) : daemon(d), fd(fd_in) {}

    void
    onHello(std::uint32_t, const std::string &name) override
    {
        if (pipe != nullptr || !admitError.isOk())
            return; // duplicate hello: first one wins
        auto admitted = daemon.admitStream(name, fd);
        if (admitted.ok())
            pipe = admitted.value();
        else
            admitError = admitted.status();
    }

    void
    onRecords(const MemRecord *recs, std::size_t n) override
    {
        if (pipe == nullptr) {
            recordsBeforeHello = true;
            return;
        }
        pipe->queue().push(recs, n);
    }

    void onEnd() override {}
};

ServeDaemon::ServeDaemon(ServeOptions opts_in)
    : opts(std::move(opts_in)), runtime(opts.runtime)
{
}

ServeDaemon::~ServeDaemon()
{
    drainAndStop();
}

Status
ServeDaemon::start()
{
    if (started_.load())
        return Status::internal("daemon already started");

    auto lf = listenUnix(opts.socketPath);
    if (!lf.ok())
        return lf.status().withContext("ingest socket");
    listenFd = lf.value();

    if (!opts.controlPath.empty()) {
        auto cf = listenUnix(opts.controlPath);
        if (!cf.ok()) {
            ::close(listenFd);
            ::unlink(opts.socketPath.c_str());
            listenFd = -1;
            return cf.status().withContext("control socket");
        }
        controlFd = cf.value();
    }

    startTime_ = std::chrono::steady_clock::now();
    {
        MutexLock lock(mu);
        serveMetrics().configGeneration.set(
            static_cast<std::int64_t>(generation_));
    }
    CCM_LOG_INFO("daemon listening on ", opts.socketPath,
                 opts.controlPath.empty()
                     ? ""
                     : " (control " + opts.controlPath + ")");

    started_.store(true);
    acceptThread = std::thread([this] { acceptLoop(); });
    if (controlFd >= 0)
        controlThread = std::thread([this] { controlLoop(); });
    reaperThread = std::thread([this] { reaperLoop(); });
    return Status::ok();
}

void
ServeDaemon::requestDrain()
{
    std::int64_t none = 0;
    if (!drainDeadlineMs.compare_exchange_strong(
            none, nowMillis() + opts.drainGraceMs))
        return;
    drainLatch.requestStop();
    // Wakes the acceptor's poll() and makes later connects fail with
    // ECONNREFUSED instead of waiting in the backlog.
    ::shutdown(listenFd, SHUT_RDWR);
}

Status
ServeDaemon::reload()
{
    if (opts.configPath.empty())
        return Status::unsupported(
            "reload: daemon was started without a config file");
    auto cfg = loadServeConfig(opts.configPath);
    if (!cfg.ok())
        return cfg.status().withContext(
            "reload rejected (previous configuration kept)");
    MutexLock lock(mu);
    runtime = cfg.take();
    ++generation_;
    serveMetrics().reloads.inc();
    serveMetrics().configGeneration.set(
        static_cast<std::int64_t>(generation_));
    CCM_LOG_INFO("config reloaded from ", opts.configPath,
                 " (generation ", generation_, ")");
    return Status::ok();
}

void
ServeDaemon::drainAndStop()
{
    if (!started_.load())
        return;
    requestDrain();
    if (acceptThread.joinable())
        acceptThread.join();
    joinFinishedReaders(true);
    stopLatch.requestStop();
    if (controlThread.joinable())
        controlThread.join();
    if (reaperThread.joinable())
        reaperThread.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
        ::unlink(opts.socketPath.c_str());
    }
    if (controlFd >= 0) {
        ::close(controlFd);
        controlFd = -1;
        ::unlink(opts.controlPath.c_str());
    }
    started_.store(false);
}

std::size_t
ServeDaemon::activeStreams() const
{
    MutexLock lock(mu);
    return active.size();
}

std::uint64_t
ServeDaemon::streamsAdmitted() const
{
    MutexLock lock(mu);
    return admitted_;
}

std::uint64_t
ServeDaemon::generation() const
{
    MutexLock lock(mu);
    return generation_;
}

Expected<std::shared_ptr<StreamPipeline>>
ServeDaemon::admitStream(const std::string &name, int fd)
{
    std::shared_ptr<StreamPipeline> pipe;
    {
        MutexLock lock(mu);
        if (draining()) {
            ++refused_;
            serveMetrics().streamsRefused.inc();
            CCM_LOG_WARN("stream '", name,
                         "' refused: daemon is draining");
            return Status::unavailable("daemon is draining; stream '",
                                       name, "' refused");
        }
        if (active.size() >= opts.maxStreams) {
            ++refused_;
            serveMetrics().streamsRefused.inc();
            CCM_LOG_WARN("stream '", name, "' refused: stream limit ",
                         opts.maxStreams, " reached");
            return Status::unavailable(
                "stream limit ", opts.maxStreams,
                " reached; stream '", name, "' refused");
        }
        const std::uint64_t id = nextId++;
        std::string label =
            name.empty() ? "stream-" + std::to_string(id) : name;
        pipe = std::make_shared<StreamPipeline>(
            id, std::move(label), runtime.system, runtime.limits,
            generation_);
        active.emplace(id, ActiveStream{pipe, fd});
        ++admitted_;
        serveMetrics().streamsAdmitted.inc();
        serveMetrics().streamsActive.add(1);
    }
    CCM_LOG_INFO("stream '", pipe->name(), "' admitted (id ",
                 pipe->id(), ")");
    pipe->start();
    return pipe;
}

void
ServeDaemon::finishStream(std::uint64_t id)
{
    std::shared_ptr<StreamPipeline> pipe;
    {
        MutexLock lock(mu);
        auto it = active.find(id);
        if (it == active.end())
            return;
        pipe = it->second.pipe;
    }

    // Queue input is already closed, so the simulation thread is on
    // its way out; join outside the daemon lock.
    pipe->join();
    obs::JsonValue report = pipe->reportJson();
    const QueueStats qs = pipe->queue().stats();
    const bool ok = pipe->state() == StreamState::Done;

    ServeMetrics &sm = serveMetrics();
    (ok ? sm.streamsDone : sm.streamsFailed).inc();
    sm.streamsActive.add(-1);
    sm.records.inc(qs.pushed);
    sm.recordsShed.inc(qs.shed);
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    if (tracer.enabled())
        tracer.record("stream:" + pipe->name(), "serve",
                      pipe->spanBeginMicros(), tracer.nowMicros());
    if (ok)
        CCM_LOG_INFO("stream '", pipe->name(), "' done (", qs.pushed,
                     " records)");
    else
        CCM_LOG_WARN("stream '", pipe->name(),
                     "' failed: ", pipe->status().toString());

    MutexLock lock(mu);
    active.erase(id);
    if (ok)
        ++done_;
    else
        ++failed_;
    recordsDone += qs.pushed;
    finishedReports.push_back(std::move(report));
    while (finishedReports.size() > opts.finishedReports)
        finishedReports.pop_front();
}

obs::JsonValue
ServeDaemon::statsDocument() const
{
    obs::JsonValue doc = obs::statsDocumentHeader("serve");

    MutexLock lock(mu);

    std::vector<obs::JsonValue> live;
    live.reserve(active.size());
    std::uint64_t live_active = 0, live_done = 0, live_failed = 0;
    Count live_records = 0;
    for (const auto &[id, as] : active) {
        (void)id;
        obs::JsonValue r = as.pipe->reportJson();
        const std::string &st = r.at("state").asString();
        if (st == "done")
            ++live_done;
        else if (st == "failed")
            ++live_failed;
        else
            ++live_active;
        live_records += as.pipe->queue().stats().pushed;
        live.push_back(std::move(r));
    }

    obs::JsonValue daemon = obs::JsonValue::object();
    daemon.set("generation", obs::JsonValue::uint(generation_));
    daemon.set("config_generation", obs::JsonValue::uint(generation_));
    daemon.set("version", obs::JsonValue::str(kCcmVersion));
    daemon.set("uptime_seconds",
               obs::JsonValue::real(
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - startTime_)
                       .count()));
    daemon.set("arch", obs::JsonValue::str(runtime.arch));
    daemon.set("draining",
               obs::JsonValue::boolean(draining()));
    daemon.set("streams_total", obs::JsonValue::uint(admitted_));
    daemon.set("streams_active", obs::JsonValue::uint(live_active));
    daemon.set("streams_done",
               obs::JsonValue::uint(done_ + live_done));
    daemon.set("streams_failed",
               obs::JsonValue::uint(failed_ + live_failed));
    daemon.set("streams_refused", obs::JsonValue::uint(refused_));
    daemon.set("records_total",
               obs::JsonValue::uint(recordsDone + live_records));
    doc.set("daemon", std::move(daemon));

    obs::JsonValue streams = obs::JsonValue::array();
    for (auto &r : live)
        streams.push(std::move(r));
    for (const auto &r : finishedReports)
        streams.push(r);
    doc.set("streams", std::move(streams));
    return doc;
}

void
ServeDaemon::joinFinishedReaders(bool all)
{
    MutexLock lock(readersMu);
    for (auto it = readers.begin(); it != readers.end();) {
        if (all || it->done.load()) {
            if (it->thread.joinable())
                it->thread.join();
            it = readers.erase(it);
        } else {
            ++it;
        }
    }
}

void
ServeDaemon::acceptLoop()
{
    for (;;) {
        joinFinishedReaders(false);
        pollfd pf{listenFd, POLLIN, 0};
        if (::poll(&pf, 1, -1) < 0 && errno != EINTR)
            break;
        if (draining())
            break;
        const int cfd = ::accept(listenFd, nullptr, nullptr);
        if (cfd < 0)
            continue; // EAGAIN / aborted handshake

        MutexLock lock(readersMu);
        ReaderSlot &slot = readers.emplace_back();
        std::atomic<bool> *done = &slot.done;
        slot.thread = std::thread(
            [this, cfd, done] { serveConnection(cfd, done); });
    }
}

void
ServeDaemon::serveConnection(int fd, std::atomic<bool> *done_flag)
{
    FrameParser parser;
    ConnectionSink sink(*this, fd);
    std::vector<std::uint8_t> buf(64 * 1024);
    bool cut_by_drain = false;

    for (;;) {
        const std::int64_t deadline = drainDeadlineMs.load();
        if (deadline != 0 && nowMillis() >= deadline) {
            cut_by_drain = true;
            break;
        }
        if (!sink.admitError.isOk() || sink.recordsBeforeHello)
            break;
        if (parser.sawEnd())
            break;
        // The simulation thread can end first (failed run, reap):
        // retire the stream now instead of pumping the rest of the
        // producer's trace into a dead pipeline.
        if (sink.pipe != nullptr && sink.pipe->finished())
            break;

        // The connection and the drain latch, then the connection
        // until the drain deadline.
        pollfd pf[2] = {{fd, POLLIN, 0},
                        {drainLatch.wakeFd(), POLLIN, 0}};
        const int pr =
            deadline == 0
                ? ::poll(pf, 2, -1)
                : ::poll(pf, 1, millisUntil(deadline));
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pf[0].revents == 0)
            continue;
        const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
        if (n == 0)
            break; // producer closed its end
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break; // reset / reaper shutdown
        }
        {
            using namespace std::chrono;
            const auto t0 = steady_clock::now();
            parser.feed(buf.data(), static_cast<std::size_t>(n),
                        sink);
            serveMetrics().frameDecodeUs.observe(
                static_cast<std::uint64_t>(
                    duration_cast<microseconds>(steady_clock::now() -
                                                t0)
                        .count()));
        }

        if (sink.pipe != nullptr) {
            sink.pipe->noteActivity();
            sink.pipe->setFrameStats(parser.stats());
            const Count budget =
                sink.pipe->streamLimits().defectBudget;
            if (parser.stats().defects() > budget) {
                sink.pipe->failWith(Status::corruptTrace(
                    "stream '", sink.pipe->name(), "': ",
                    parser.stats().defects(),
                    " frame defects exceed budget ", budget,
                    " (first: ",
                    frameDefectName(parser.stats().firstDefect),
                    ")"));
                break;
            }
        } else if (parser.stats().defects() > 0) {
            // Not admitted yet, so the daemon's current budget applies:
            // a peer that never completes a hello (garbage, a producer
            // of another protocol version) must not hold this reader.
            Count budget = 0;
            {
                MutexLock lock(mu);
                budget = runtime.limits.defectBudget;
            }
            if (parser.stats().defects() > budget) {
                CCM_LOG_WARN("connection dropped before its hello: ",
                             parser.stats().defects(),
                             " frame defects exceed budget ", budget,
                             " (first: ",
                             frameDefectName(parser.stats().firstDefect),
                             ")");
                break;
            }
        }
    }

    parser.finish(sink);
    if (sink.pipe != nullptr) {
        sink.pipe->setFrameStats(parser.stats());
        if (!parser.sawEnd()) {
            if (cut_by_drain)
                sink.pipe->failWith(Status::aborted(
                    "stream '", sink.pipe->name(),
                    "' cut by drain before its end frame"));
            else
                sink.pipe->failWith(Status::aborted(
                    "stream '", sink.pipe->name(),
                    "' disconnected before its end frame"));
        }
        sink.pipe->queue().closeInput();
        finishStream(sink.pipe->id());
    }
    ::close(fd);
    if (done_flag != nullptr)
        done_flag->store(true);
}

void
ServeDaemon::reaperLoop()
{
    for (;;) {
        pollfd pf{stopLatch.wakeFd(), POLLIN, 0};
        ::poll(&pf, 1, kReapPeriodMs);
        if (stopLatch.stopRequested())
            return;
        MutexLock lock(mu);
        std::size_t queued = 0;
        for (const auto &[id, as] : active) {
            (void)id;
            queued += as.pipe->queue().depth();
        }
        serveMetrics().queueDepth.set(
            static_cast<std::int64_t>(queued));
        for (auto &[id, as] : active) {
            (void)id;
            StreamPipeline &pipe = *as.pipe;
            if (pipe.finished()) {
                // The simulation ended but the reader still owns the
                // connection (e.g. a run that failed mid-stream):
                // make sure no producer is parked in push() and cut
                // the socket so the reader retires the stream.
                pipe.queue().abort();
                ::shutdown(as.fd, SHUT_RDWR);
                continue;
            }
            if (opts.idleTtlMs <= 0 ||
                pipe.idleMillis() <= opts.idleTtlMs)
                continue;
            pipe.failWith(Status::aborted(
                "stream '", pipe.name(), "' idle for ",
                pipe.idleMillis(), " ms (ttl ", opts.idleTtlMs,
                " ms), reaped"));
            pipe.queue().abort();
            // Kick the reader off its socket; it retires the stream.
            ::shutdown(as.fd, SHUT_RDWR);
        }
    }
}

void
ServeDaemon::controlLoop()
{
    for (;;) {
        pollfd pf[2] = {{controlFd, POLLIN, 0},
                        {stopLatch.wakeFd(), POLLIN, 0}};
        if (::poll(pf, 2, -1) < 0 && errno != EINTR)
            break;
        if (stopLatch.stopRequested())
            break;
        const int cfd = ::accept(controlFd, nullptr, nullptr);
        if (cfd < 0)
            continue;
        handleControlClient(cfd);
    }
}

std::string
ServeDaemon::runControlCommand(const std::string &command)
{
    serveMetrics().controlRequests.inc();
    obs::ScopedSpan span("control:" + command, "control");
    if (command == "stats")
        return statsDocument().toString();
    if (command == "metrics")
        return obs::MetricsRegistry::global().prometheusText();
    if (command == "metrics json") {
        std::ostringstream os;
        obs::writeDocument(os, obs::metricsDocument(),
                           obs::StatsFormat::Json);
        return os.str();
    }
    if (command == "ping")
        return "pong\n";
    if (command == "drain") {
        CCM_LOG_INFO("drain requested via control socket");
        requestDrain();
        return "ok\n";
    }
    if (command == "reload") {
        Status s = reload();
        if (!s.isOk())
            CCM_LOG_WARN("reload failed: ", s.toString());
        return s.isOk() ? "ok\n" : "error: " + s.toString() + "\n";
    }
    return "error: unknown command '" + command + "'\n";
}

void
ServeDaemon::handleControlClient(int fd)
{
    // One short request line, then one response, then close.
    std::string command;
    const std::int64_t deadline = nowMillis() + kControlReadMs;
    while (nowMillis() < deadline && command.find('\n') ==
                                         std::string::npos &&
           command.size() < 256) {
        pollfd pf{fd, POLLIN, 0};
        const int pr = ::poll(&pf, 1, millisUntil(deadline));
        if (pr < 0 && errno != EINTR)
            break;
        if (pr <= 0)
            continue;
        char chunk[256];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        command.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t eol = command.find_first_of("\r\n");
    if (eol != std::string::npos)
        command.erase(eol);

    const std::string reply = runControlCommand(command);
    sendAll(fd, reply.data(), reply.size(), 1000);
    ::close(fd);
}

} // namespace ccm::serve
