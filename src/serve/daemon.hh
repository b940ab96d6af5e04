/**
 * @file
 * The ccm-serve daemon: accepts trace streams from many concurrent
 * producers on a unix-domain socket (the CCMF frame protocol of
 * serve/frame.hh), runs one simulation pipeline per stream with
 * bounded memory, and answers live stats queries on a control socket
 * with schema-versioned kind:"serve" ccm-stats JSON.
 *
 * Thread model (one daemon, docs/SERVING.md).  Each thread blocks on
 * the events it serves; the reaper's 100 ms period is the one tick:
 *
 *  - acceptor: the ingest socket; spawns one reader per connection.
 *    requestDrain() shuts the listener, which wakes it and refuses
 *    later connects;
 *  - reader, one per connection: its socket and the drain latch, then
 *    its socket until the drain deadline.  Parses frames, feeds the
 *    stream's bounded queue, owns the stream lifecycle end to end;
 *  - simulation, one per stream (inside StreamPipeline): its queue;
 *  - control: the control socket and the stop latch; answers one-shot
 *    "stats" / "drain" / "reload" / "ping" requests;
 *  - reaper: the stop latch, every 100 ms; fails and disconnects
 *    streams idle past the TTL or whose pipeline already ended.
 *
 * Fault isolation: any per-stream failure (corrupt frames past the
 * defect budget, producer disconnect without the end frame, idle-TTL
 * reap, a bad geometry) marks that stream Failed with a Status and
 * leaves every other stream — and the daemon — running.
 *
 * Lifecycle: requestDrain() (SIGTERM, or the control "drain" command)
 * refuses new connections, gives connected producers a grace period to send
 * their end frames, then cuts the stragglers; drainAndStop() joins
 * everything.  reload() (SIGHUP) re-reads the config file and swaps
 * the runtime configuration under the admission lock — streams in
 * flight finish on the configuration they were admitted with, marked
 * by their generation number.
 *
 * Locking contract (machine-checked, src/common/sync.hh): the daemon
 * lock (LockRank::ServeDaemon, the lowest-ranked lock in the serve
 * layer) guards admission state, the active-stream map, the retained
 * reports, and the aggregate counters; it may be held across calls
 * into a stream's public interface (reportJson, failWith, queue
 * abort), which take the higher-ranked stream/queue locks.  The
 * reader-thread registry has its own never-nested lock
 * (LockRank::ServeDaemonReaders).  Lifecycle flags are atomics so
 * signal-driven paths never block.
 */

#ifndef CCM_SERVE_DAEMON_HH
#define CCM_SERVE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/shutdown.hh"
#include "common/sync.hh"
#include "obs/json.hh"
#include "serve/config.hh"
#include "serve/stream.hh"

namespace ccm::serve
{

/** Everything the daemon needs to run. */
struct ServeOptions
{
    /** Ingest socket path (unix-domain, created at start). */
    std::string socketPath;

    /** Control socket path; empty disables the control plane. */
    std::string controlPath;

    /** Config file reload() re-reads; empty disables reload. */
    std::string configPath;

    /** Initial machine configuration + per-stream limits. */
    ServeRuntimeConfig runtime;

    /** Admission cap on concurrently active streams. */
    std::size_t maxStreams = 64;

    /** Reap streams idle longer than this; 0 = never. */
    std::int64_t idleTtlMs = 0;

    /** Drain: how long producers get to deliver their end frames. */
    std::int64_t drainGraceMs = 2000;

    /** Finished-stream reports retained for the stats document. */
    std::size_t finishedReports = 64;
};

/** A multi-stream trace-serving daemon (see file comment). */
class ServeDaemon
{
  public:
    explicit ServeDaemon(ServeOptions opts);

    /** Drains and stops if still running. */
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /** Bind the sockets and spawn the service threads. */
    Status start();

    /**
     * Begin graceful drain: no new streams, connected producers get
     * drainGraceMs to finish, stragglers are cut and marked Failed.
     * Idempotent and async-signal-unsafe (call from the main loop on
     * a ShutdownLatch wakeup, not from a handler).
     */
    void requestDrain();

    /** True once a drain was requested (signal or control socket). */
    bool draining() const { return drainDeadlineMs.load() != 0; }

    /** Readable once a drain was requested; poll() it to wake. */
    int drainWakeFd() const { return drainLatch.wakeFd(); }

    /**
     * Re-read the config file and swap the runtime configuration for
     * subsequently admitted streams (generation() increments).
     * Streams in flight are not disturbed.  On error the old
     * configuration stays in force.
     */
    Status reload() CCM_EXCLUDES(mu);

    /** requestDrain(), wait for every stream to retire, join all. */
    void drainAndStop();

    /**
     * The live kind:"serve" ccm-stats document: daemon aggregates +
     * one entry per active stream + retained finished-stream reports
     * (passes obs::validateStatsDoc at any moment).
     */
    obs::JsonValue statsDocument() const CCM_EXCLUDES(mu);

    /** Streams currently admitted and not yet retired. */
    std::size_t activeStreams() const CCM_EXCLUDES(mu);

    /** Total streams ever admitted (tests). */
    std::uint64_t streamsAdmitted() const CCM_EXCLUDES(mu);

    /** Configuration generation (bumped by reload). */
    std::uint64_t generation() const CCM_EXCLUDES(mu);

    const ServeOptions &options() const { return opts; }

  private:
    struct ActiveStream
    {
        std::shared_ptr<StreamPipeline> pipe;
        int fd = -1; ///< connection fd (for reap-time shutdown)
    };

    struct ReaderSlot
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    friend struct ConnectionSink;

    void acceptLoop();
    void controlLoop();
    void reaperLoop();
    void serveConnection(int fd, std::atomic<bool> *done_flag);
    void handleControlClient(int fd);
    std::string runControlCommand(const std::string &command);

    /** Register a new stream at hello time (or refuse admission). */
    Expected<std::shared_ptr<StreamPipeline>>
    admitStream(const std::string &name, int fd) CCM_EXCLUDES(mu);

    /** Retire a stream: join its simulation, keep its final report. */
    void finishStream(std::uint64_t id) CCM_EXCLUDES(mu);

    void joinFinishedReaders(bool all) CCM_EXCLUDES(readersMu);

    const ServeOptions opts;

    int listenFd = -1;
    int controlFd = -1;

    std::thread acceptThread;
    std::thread controlThread;
    std::thread reaperThread;

    Mutex readersMu{LockRank::ServeDaemonReaders,
                    "serve-daemon-readers"};
    std::list<ReaderSlot> readers CCM_GUARDED_BY(readersMu);

    /** For the stats document's uptime_seconds (reset by start()). */
    std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();

    std::atomic<bool> started_{false};
    std::atomic<std::int64_t> drainDeadlineMs{0}; ///< 0 = not draining
    ShutdownLatch drainLatch; ///< fired by requestDrain()
    ShutdownLatch stopLatch;  ///< fired once the readers are joined

    mutable Mutex mu{LockRank::ServeDaemon, "serve-daemon"};
    /** Current config (reload swaps). */
    ServeRuntimeConfig runtime CCM_GUARDED_BY(mu);
    std::uint64_t generation_ CCM_GUARDED_BY(mu) = 1;
    std::uint64_t nextId CCM_GUARDED_BY(mu) = 1;
    std::map<std::uint64_t, ActiveStream> active CCM_GUARDED_BY(mu);
    std::deque<obs::JsonValue> finishedReports CCM_GUARDED_BY(mu);
    Count admitted_ CCM_GUARDED_BY(mu) = 0;
    Count refused_ CCM_GUARDED_BY(mu) = 0;
    Count done_ CCM_GUARDED_BY(mu) = 0;
    Count failed_ CCM_GUARDED_BY(mu) = 0;
    /** Records of retired streams. */
    Count recordsDone CCM_GUARDED_BY(mu) = 0;
};

} // namespace ccm::serve

#endif // CCM_SERVE_DAEMON_HH
