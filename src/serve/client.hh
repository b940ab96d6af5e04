/**
 * @file
 * Producer-side client for the ccm-serve daemon: connects to the
 * ingest socket with retry + exponential backoff, frames records with
 * the CCMF protocol, and sends with a bounded I/O timeout so a stuck
 * daemon can never hang a producer forever.
 *
 * The client deliberately exposes the failure modes the daemon's
 * robustness tests need to provoke: sendRawBytes() injects arbitrary
 * (possibly corrupt) bytes into the stream, and closeAbrupt() drops
 * the connection without the end frame — a producer crash, as the
 * daemon sees it.
 *
 * controlRequest() is the one-shot control-plane counterpart: send a
 * command line ("stats", "drain", "reload", "ping"), read the reply.
 */

#ifndef CCM_SERVE_CLIENT_HH
#define CCM_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "serve/frame.hh"
#include "trace/source.hh"

namespace ccm::serve
{

/** Connection + I/O policy for producers and control clients. */
struct ClientOptions
{
    /** Connect attempts before giving up (>= 1). */
    int connectRetries = 5;

    /** Backoff before the second attempt; doubles, capped at 1 s. */
    int backoffInitialMs = 10;

    /** Per-send/receive progress timeout. */
    int ioTimeoutMs = 5000;
};

/** One producer connection streaming records to the daemon. */
class ServeClient
{
  public:
    /**
     * Connect to the daemon at @p socket_path (retrying with
     * exponential backoff) and introduce stream @p stream_name with a
     * hello frame.
     */
    static Expected<ServeClient> connect(const std::string &socket_path,
                                         const std::string &stream_name,
                                         const ClientOptions &opts = {});

    ~ServeClient();

    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&other) noexcept;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Frame and send @p n records. */
    Status sendRecords(const MemRecord *recs, std::size_t n);

    /** Send the end-of-stream frame (the daemon marks the stream Done). */
    Status sendEnd();

    /**
     * Send raw bytes as-is — no framing, no checksum.  Fault-injection
     * territory: this is how tests corrupt a stream on the wire.
     */
    Status sendRawBytes(const std::uint8_t *data, std::size_t n);

    /**
     * Drop the connection without an end frame (simulated producer
     * crash; the daemon marks the stream Failed).
     */
    void closeAbrupt();

    /**
     * Drain @p src into the daemon in batches and finish with the end
     * frame.  Streams through a defect-injecting source just as well
     * as a clean one — the records themselves are packed faithfully.
     */
    Status streamAll(TraceSource &src);

    bool connected() const { return fd >= 0; }

  private:
    ServeClient(int fd_in, ClientOptions opts_in)
        : fd(fd_in), opts(opts_in)
    {
    }

    Status sendAllBytes(const std::uint8_t *data, std::size_t n);

    /** Send sendBuf's frames, then clear it for the next call. */
    Status sendBuffered();

    int fd = -1;
    ClientOptions opts;
    /** Frames being sent; reused so steady-state sends never allocate. */
    std::vector<std::uint8_t> sendBuf;
};

/**
 * One-shot control request: connect to @p control_path (with the same
 * retry policy), send @p command, return the full reply.
 */
Expected<std::string> controlRequest(const std::string &control_path,
                                     const std::string &command,
                                     const ClientOptions &opts = {});

} // namespace ccm::serve

#endif // CCM_SERVE_CLIENT_HH
