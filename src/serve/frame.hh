/**
 * @file
 * The ccm-serve stream frame protocol: length-prefixed, checksummed
 * frames carrying the 24-byte packed MemRecords of trace/wire.hh over
 * a byte stream (a unix-domain socket, or a capture file validated by
 * `tracecheck --frames`).
 *
 * Layout (little-endian, docs/SERVING.md):
 *
 *   [0..3]   magic "CCMF"
 *   [4]      u8  type      (1 = hello, 2 = records, 3 = end)
 *   [5]      u8  flags     (must be 0)
 *   [6..7]   u16 payload length   (<= kMaxFramePayload)
 *   [8..11]  u32 checksum over bytes [4..7] + payload
 *   [12..]   payload
 *
 * Payloads: hello = u32 protocol version, u8 name length, name bytes;
 * records = N x 24-byte packed records; end = empty.  A stream is
 * hello, any number of records frames, end; a connection that closes
 * without the end frame was cut off mid-stream.
 *
 * The checksum (protocol version 2) is a 4-lane 64-bit multiply-xor
 * over 8-byte little-endian words.  Each step absorbs a word w into
 * a lane h as  h ^= w; h *= M; h ^= h >> 29  with
 * M = 0x9e3779b97f4a7c15.  The lanes start at
 *
 *   0x9e3779b185ebca87  0xc2b2ae3d27d4eb4f
 *   0x165667b19e3779f9  0x85ebca77c2b2ae63
 *
 * Lane 0 first absorbs header bytes [4..7] as one word (zero-extended
 * u32).  Payload word k, bytes [8k..8k+7] of the payload, goes to lane
 * k mod 4; a last partial word is zero-padded to 8 bytes.  Then
 * h = 0 absorbs lanes 0, 1, 2, 3 and the payload length, in that
 * order, and the checksum is the u32  (h ^ (h >> 32)) & 0xffffffff.
 * Version 1 is not accepted: a v1 producer's frames fail the
 * checksum and are skipped as bad-checksum garbage, and a hello
 * carrying any version but 2 is bad-hello.
 *
 * The parser is incremental and never fails hard: malformed bytes are
 * skipped with resync to the next believable frame boundary (the same
 * defect-tolerance posture as trace/file_trace), every defect is
 * counted in FrameStats with a first-defect taxonomy, and the
 * surviving frames still flow.  Per-stream robustness policy (how
 * many defects to tolerate before declaring the stream failed) lives
 * above the parser, in the daemon.
 */

#ifndef CCM_SERVE_FRAME_HH
#define CCM_SERVE_FRAME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/record.hh"

namespace ccm::serve
{

/** Protocol version carried by the hello frame. */
inline constexpr std::uint32_t kFrameProtoVersion = 2;

/** Frame header bytes preceding every payload. */
inline constexpr std::size_t kFrameHeaderBytes = 12;

/** Most records one frame may carry (one delivery batch). */
inline constexpr std::size_t kMaxRecordsPerFrame = 256;

/** Hard cap on any frame payload (records frames are the largest). */
inline constexpr std::size_t kMaxFramePayload = kMaxRecordsPerFrame * 24;

/** Longest stream name a hello frame can carry. */
inline constexpr std::size_t kMaxStreamName = 128;

enum class FrameType : std::uint8_t
{
    Hello = 1,   ///< stream introduction: proto version + name
    Records = 2, ///< N packed MemRecords
    End = 3,     ///< clean end-of-stream
};

/** What, if anything, is wrong with a frame stream. */
enum class FrameDefect
{
    None = 0,
    BadMagic,      ///< garbage bytes between frames (resynced past)
    BadHeader,     ///< magic found but type/flags/length implausible
    BadChecksum,   ///< well-formed header, corrupted payload
    BadRecord,     ///< records frame carrying implausible records
    BadHello,      ///< hello frame with bad version/name encoding
    TruncatedTail, ///< stream ended inside a frame
};

/** Stable lower-case name of @p d (e.g. "bad-checksum"). */
const char *frameDefectName(FrameDefect d);

/** Counters for one parsed stream, defects included. */
struct FrameStats
{
    Count frames = 0;       ///< intact frames delivered
    Count records = 0;      ///< records carried by intact frames
    Count helloFrames = 0;
    Count endFrames = 0;
    Count malformedFrames = 0; ///< frames rejected by any defect
    Count resyncEvents = 0;    ///< garbage runs skipped
    Count bytesSkipped = 0;    ///< total garbage bytes passed over
    Count badRecords = 0;      ///< implausible records dropped

    /** First defect seen (FrameDefect::None for a clean stream). */
    FrameDefect firstDefect = FrameDefect::None;

    bool clean() const { return firstDefect == FrameDefect::None; }

    /** Defect events relevant to a tolerance budget. */
    Count
    defects() const
    {
        return malformedFrames + resyncEvents + badRecords;
    }
};

// ---- Encoding -----------------------------------------------------

/** Append a hello frame for stream @p name (truncated to the cap). */
void appendHelloFrame(std::vector<std::uint8_t> &out,
                      const std::string &name);

/**
 * Append records frames carrying @p recs, split into frames of at
 * most kMaxRecordsPerFrame records each.
 */
void appendRecordsFrames(std::vector<std::uint8_t> &out,
                         const MemRecord *recs, std::size_t n);

/** Append the end-of-stream frame. */
void appendEndFrame(std::vector<std::uint8_t> &out);

// ---- Decoding -----------------------------------------------------

/** Receiver interface for parsed frames and tolerated defects. */
class FrameSink
{
  public:
    virtual ~FrameSink() = default;

    virtual void onHello(std::uint32_t version,
                         const std::string &name) = 0;
    virtual void onRecords(const MemRecord *recs, std::size_t n) = 0;
    virtual void onEnd() = 0;

    /** A tolerated defect (already counted in FrameStats). */
    virtual void
    onDefect(FrameDefect d, const std::string &detail)
    {
        (void)d;
        (void)detail;
    }
};

/**
 * Incremental frame-stream parser with resync.  feed() bytes as they
 * arrive; finish() once the stream ends so a trailing partial frame
 * is diagnosed.  Buffering is bounded by one maximum-size frame.
 */
class FrameParser
{
  public:
    /** Consume @p n bytes, dispatching whatever completes. */
    void feed(const std::uint8_t *data, std::size_t n,
              FrameSink &sink);

    /** End of input: flag any buffered partial frame. */
    void finish(FrameSink &sink);

    const FrameStats &stats() const { return stats_; }

    /** True once a clean end frame was parsed. */
    bool sawEnd() const { return sawEnd_; }

  private:
    void parseBuffer(FrameSink &sink);
    void skipGarbage(std::size_t n, FrameDefect why, FrameSink &sink);
    void dispatchFrame(FrameType type, const std::uint8_t *payload,
                       std::size_t len, FrameSink &sink);

    std::vector<std::uint8_t> buf;
    std::size_t pos = 0; ///< consumed prefix of buf
    bool inGarbageRun = false;
    bool sawEnd_ = false;
    FrameStats stats_;
};

} // namespace ccm::serve

#endif // CCM_SERVE_FRAME_HH
