#include "serve/frame.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "trace/wire.hh"

namespace ccm::serve
{

namespace
{

constexpr std::uint8_t kMagic[4] = {'C', 'C', 'M', 'F'};

/** CCMF v2 checksum constants (docs/SERVING.md "Checksum"). */
constexpr std::uint64_t kSumSeeds[4] = {
    0x9e3779b185ebca87ull, 0xc2b2ae3d27d4eb4full,
    0x165667b19e3779f9ull, 0x85ebca77c2b2ae63ull};
constexpr std::uint64_t kSumMul = 0x9e3779b97f4a7c15ull;
constexpr int kSumShift = 29;

/** One multiply-xor step: absorb word @p w into lane state @p h. */
inline std::uint64_t
sumMix(std::uint64_t h, std::uint64_t w)
{
    h ^= w;
    h *= kSumMul;
    return h ^ (h >> kSumShift);
}

/**
 * The CCMF v2 checksum of the frame whose header is at @p hdr and
 * whose @p len payload bytes are at @p payload.  Lane 0 absorbs the
 * header bytes [4..7] as a zero-extended word; payload word k (8
 * little-endian bytes, the last one zero-padded) goes to lane k mod 4;
 * the four lanes, then the payload length, are folded into one word
 * whose halves are xored to 32 bits.  The lanes are independent
 * multiply chains, so a records frame costs about a cycle per word.
 */
std::uint32_t
frameChecksum(const std::uint8_t *hdr, const std::uint8_t *payload,
              std::size_t len)
{
    std::uint64_t lane[4] = {kSumSeeds[0], kSumSeeds[1], kSumSeeds[2],
                             kSumSeeds[3]};
    lane[0] = sumMix(lane[0], wire::loadLe32(hdr + 4));
    const std::size_t words = len / 8;
    std::size_t k = 0;
    for (; k + 4 <= words; k += 4)
        for (std::size_t i = 0; i < 4; ++i)
            lane[i] = sumMix(lane[i],
                             wire::loadLe64(payload + 8 * (k + i)));
    for (; k < words; ++k)
        lane[k % 4] = sumMix(lane[k % 4], wire::loadLe64(payload + 8 * k));
    if (len % 8 != 0) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, payload + 8 * k, len % 8);
        lane[k % 4] = sumMix(lane[k % 4], wire::loadLe64(tail));
    }
    std::uint64_t h = 0;
    for (const std::uint64_t l : lane)
        h = sumMix(h, l);
    h = sumMix(h, len);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/**
 * Write the header of a @p type frame with a @p len byte payload at
 * @p hdr; the payload follows at hdr + kFrameHeaderBytes and must be
 * in place before sealFrame().
 */
void
putHeader(std::uint8_t *hdr, FrameType type, std::size_t len)
{
    std::memcpy(hdr, kMagic, 4);
    hdr[4] = static_cast<std::uint8_t>(type);
    hdr[5] = 0;
    hdr[6] = static_cast<std::uint8_t>(len & 0xff);
    hdr[7] = static_cast<std::uint8_t>(len >> 8);
}

/**
 * Grow @p out by one @p type frame of @p len payload bytes, write its
 * header, and return the header's address in @p out.
 */
std::uint8_t *
growFrame(std::vector<std::uint8_t> &out, FrameType type, std::size_t len)
{
    const std::size_t base = out.size();
    out.resize(base + kFrameHeaderBytes + len);
    putHeader(out.data() + base, type, len);
    return out.data() + base;
}

/** Checksum the frame at @p hdr (header and payload in place). */
void
sealFrame(std::uint8_t *hdr, std::size_t len)
{
    wire::storeLe32(frameChecksum(hdr, hdr + kFrameHeaderBytes, len),
                    hdr + 8);
}

std::uint16_t
getU16(const std::uint8_t *buf)
{
    return static_cast<std::uint16_t>(buf[0] |
                                      (std::uint16_t{buf[1]} << 8));
}

/**
 * True when the 12 bytes at @p hdr could begin a real frame: known
 * type, zero flags, in-range length with the per-type shape
 * constraints.  Used both to validate the frame under the cursor and
 * to find a believable boundary during resync.
 */
bool
plausibleHeader(const std::uint8_t *hdr)
{
    if (std::memcmp(hdr, kMagic, 4) != 0)
        return false;
    const std::uint8_t type = hdr[4];
    if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
        type > static_cast<std::uint8_t>(FrameType::End))
        return false;
    if (hdr[5] != 0)
        return false;
    const std::size_t len = getU16(hdr + 6);
    if (len > kMaxFramePayload)
        return false;
    switch (static_cast<FrameType>(type)) {
      case FrameType::Hello:
        return len >= 5 && len <= 5 + kMaxStreamName;
      case FrameType::Records:
        return len > 0 && len % wire::recordBytes == 0;
      case FrameType::End:
        return len == 0;
    }
    return false;
}

/**
 * Bytes a resync at @p pos passes over in one step: up to the next
 * magic byte, since no header starts anywhere else, or up to the
 * first position with less than a header behind it.  Every position
 * skipped would have failed plausibleHeader() and added one byte to
 * the same garbage run, so the skip leaves every count unchanged.
 */
std::size_t
garbageSpan(const std::vector<std::uint8_t> &buf, std::size_t pos)
{
    const std::size_t end = buf.size() - kFrameHeaderBytes + 1;
    const auto *magic = static_cast<const std::uint8_t *>(std::memchr(
        buf.data() + pos + 1, kMagic[0], end - (pos + 1)));
    return (magic != nullptr
                ? static_cast<std::size_t>(magic - buf.data())
                : end) -
           pos;
}

} // namespace

const char *
frameDefectName(FrameDefect d)
{
    switch (d) {
      case FrameDefect::None:
        return "none";
      case FrameDefect::BadMagic:
        return "bad-magic";
      case FrameDefect::BadHeader:
        return "bad-header";
      case FrameDefect::BadChecksum:
        return "bad-checksum";
      case FrameDefect::BadRecord:
        return "bad-record";
      case FrameDefect::BadHello:
        return "bad-hello";
      case FrameDefect::TruncatedTail:
        return "truncated-tail";
    }
    return "unknown";
}

// ---- Encoding -----------------------------------------------------

void
appendHelloFrame(std::vector<std::uint8_t> &out, const std::string &name)
{
    const std::size_t name_len = std::min(name.size(), kMaxStreamName);
    const std::size_t len = 5 + name_len;
    std::uint8_t *hdr = growFrame(out, FrameType::Hello, len);
    std::uint8_t *payload = hdr + kFrameHeaderBytes;
    wire::storeLe32(kFrameProtoVersion, payload);
    payload[4] = static_cast<std::uint8_t>(name_len);
    std::memcpy(payload + 5, name.data(), name_len);
    sealFrame(hdr, len);
}

void
appendRecordsFrames(std::vector<std::uint8_t> &out, const MemRecord *recs,
                    std::size_t n)
{
    const std::size_t frames =
        (n + kMaxRecordsPerFrame - 1) / kMaxRecordsPerFrame;
    std::size_t at = out.size();
    out.resize(at + frames * kFrameHeaderBytes + n * wire::recordBytes);
    for (std::size_t off = 0; off < n; off += kMaxRecordsPerFrame) {
        const std::size_t take = std::min(n - off, kMaxRecordsPerFrame);
        const std::size_t len = take * wire::recordBytes;
        std::uint8_t *hdr = out.data() + at;
        putHeader(hdr, FrameType::Records, len);
        std::uint8_t *payload = hdr + kFrameHeaderBytes;
        for (std::size_t i = 0; i < take; ++i)
            wire::packRecord(recs[off + i],
                             payload + i * wire::recordBytes);
        sealFrame(hdr, len);
        at += kFrameHeaderBytes + len;
    }
}

void
appendEndFrame(std::vector<std::uint8_t> &out)
{
    sealFrame(growFrame(out, FrameType::End, 0), 0);
}

// ---- Decoding -----------------------------------------------------

void
FrameParser::skipGarbage(std::size_t n, FrameDefect why, FrameSink &sink)
{
    if (!inGarbageRun) {
        inGarbageRun = true;
        ++stats_.resyncEvents;
        if (stats_.firstDefect == FrameDefect::None)
            stats_.firstDefect = why;
        sink.onDefect(why, std::string("resync: skipping bytes (") +
                               frameDefectName(why) + ")");
    }
    stats_.bytesSkipped += n;
    pos += n;
}

void
FrameParser::dispatchFrame(FrameType type, const std::uint8_t *payload,
                           std::size_t len, FrameSink &sink)
{
    switch (type) {
      case FrameType::Hello: {
        const std::uint32_t version = wire::loadLe32(payload);
        const std::size_t name_len = payload[4];
        if (version != kFrameProtoVersion || name_len != len - 5) {
            ++stats_.malformedFrames;
            if (stats_.firstDefect == FrameDefect::None)
                stats_.firstDefect = FrameDefect::BadHello;
            sink.onDefect(FrameDefect::BadHello,
                          "hello frame with version " +
                              std::to_string(version));
            return;
        }
        ++stats_.frames;
        ++stats_.helloFrames;
        sink.onHello(version,
                     std::string(reinterpret_cast<const char *>(
                                     payload + 5),
                                 name_len));
        return;
      }
      case FrameType::Records: {
        const std::size_t n = len / wire::recordBytes;
        MemRecord recs[kMaxRecordsPerFrame];
        std::size_t good = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t *r = payload + i * wire::recordBytes;
            if (wire::plausibleRecord(r)) {
                recs[good++] = wire::unpackRecord(r);
            } else {
                ++stats_.badRecords;
                if (stats_.firstDefect == FrameDefect::None)
                    stats_.firstDefect = FrameDefect::BadRecord;
            }
        }
        if (good < n)
            sink.onDefect(FrameDefect::BadRecord,
                          std::to_string(n - good) +
                              " implausible records dropped");
        ++stats_.frames;
        stats_.records += good;
        if (good > 0)
            sink.onRecords(recs, good);
        return;
      }
      case FrameType::End:
        ++stats_.frames;
        ++stats_.endFrames;
        sawEnd_ = true;
        sink.onEnd();
        return;
    }
}

void
FrameParser::parseBuffer(FrameSink &sink)
{
    while (buf.size() - pos >= kFrameHeaderBytes) {
        const std::uint8_t *hdr = buf.data() + pos;
        if (!plausibleHeader(hdr)) {
            const FrameDefect why = std::memcmp(hdr, kMagic, 4) == 0
                                        ? FrameDefect::BadHeader
                                        : FrameDefect::BadMagic;
            skipGarbage(garbageSpan(buf, pos), why, sink);
            continue;
        }
        const std::size_t len = getU16(hdr + 6);
        if (buf.size() - pos < kFrameHeaderBytes + len)
            break; // incomplete frame: wait for more bytes
        if (frameChecksum(hdr, hdr + kFrameHeaderBytes, len) !=
            wire::loadLe32(hdr + 8)) {
            // The header looked right but the contents are damaged;
            // resync rather than trust the claimed length.
            skipGarbage(garbageSpan(buf, pos), FrameDefect::BadChecksum,
                        sink);
            continue;
        }
        inGarbageRun = false;
        dispatchFrame(static_cast<FrameType>(hdr[4]),
                      hdr + kFrameHeaderBytes, len, sink);
        pos += kFrameHeaderBytes + len;
    }

    // Compact the consumed prefix so the buffer stays bounded by one
    // maximum-size frame plus one read chunk.
    if (pos > 0) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(pos));
        pos = 0;
    }
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t n,
                  FrameSink &sink)
{
    buf.insert(buf.end(), data, data + n);
    parseBuffer(sink);
}

void
FrameParser::finish(FrameSink &sink)
{
    parseBuffer(sink);
    const std::size_t left = buf.size() - pos;
    if (left > 0) {
        ++stats_.malformedFrames;
        stats_.bytesSkipped += left;
        if (stats_.firstDefect == FrameDefect::None)
            stats_.firstDefect = FrameDefect::TruncatedTail;
        sink.onDefect(FrameDefect::TruncatedTail,
                      "stream ended inside a frame (" +
                          std::to_string(left) + " bytes)");
        buf.clear();
        pos = 0;
    }
}

} // namespace ccm::serve
