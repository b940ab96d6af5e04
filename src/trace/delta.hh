/**
 * @file
 * The CCMTRACD delta-compressed record codec.
 *
 * Consecutive trace records are strongly correlated: pcs advance by a
 * few bytes and data addresses stride through arrays, so storing
 * zigzag-encoded LEB128 varints of the *differences* shrinks a trace
 * to a fraction of the 24-byte packed form.  One record is
 *
 *   control byte | varint zz(pc - prev_pc) | [varint zz(addr - prev_mem_addr)]
 *
 * where the control byte carries the record type in bits 0-1 and the
 * dependsOnPrevLoad flag in bit 2 (bits 3-7 must be zero), the pc
 * delta is against the previous record of any type, and the address
 * delta — present only for loads/stores — is against the previous
 * *memory* record.  Both predictors start at zero, so the stream is
 * self-contained.  Varints are little-endian base-128 (7 payload bits
 * per byte, continuation in bit 7), at most 10 bytes; the 10th byte
 * of a maximal varint can only be 0x00 or 0x01, anything else is an
 * overlong encoding and a defect.
 *
 * Unlike the packed format there is no resync: a delta stream decodes
 * relative to everything before it, so any mid-stream damage
 * (bad-control-byte, bad-varint) is unrecoverable and loaders report
 * it regardless of the corruption budget.  Full layout and defect
 * taxonomy: docs/TRACE_FORMAT.md ("Delta encoding").
 *
 * This header is shared by the trace writer and reader
 * (trace/file_trace) and so by the conversion tools (ccm-trace
 * pack/unpack), so all of them agree byte-for-byte.
 */

#ifndef CCM_TRACE_DELTA_HH
#define CCM_TRACE_DELTA_HH

#include <cstddef>
#include <cstdint>

#include "trace/record.hh"

namespace ccm::delta
{

/** Leading 8 bytes of a delta trace file ("CCMTRACD"). */
inline constexpr char magic[8] = {'C', 'C', 'M', 'T', 'R', 'A',
                                  'C', 'D'};

/** Only version the codec speaks. */
inline constexpr std::uint32_t version = 1;

/** Control-byte layout. */
inline constexpr std::uint8_t typeMask = 0x03;       ///< bits 0-1
inline constexpr std::uint8_t flagDependsBit = 0x04; ///< bit 2
inline constexpr std::uint8_t reservedMask = 0xF8;   ///< bits 3-7

/** A u64 varint never exceeds 10 bytes. */
inline constexpr std::size_t maxVarintBytes = 10;

/** Upper bound on one encoded record (control + two varints). */
inline constexpr std::size_t maxRecordBytes = 1 + 2 * maxVarintBytes;

/** Map a signed delta to the unsigned varint domain (zigzag). */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzag(). */
inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v to @p buf as a LEB128 varint; @return bytes written. */
inline std::size_t
putVarint(std::uint64_t v, std::uint8_t *buf)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        buf[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    buf[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/** Outcome of one incremental decode step. */
enum class DecodeStatus
{
    Ok,             ///< a record was produced
    NeedMore,       ///< input ends mid-record (truncated tail)
    BadControlByte, ///< reserved bits set or type out of range
    BadVarint,      ///< overlong varint (> 10 bytes or overflow)
};

/**
 * Read a varint at [@p p, @p end).  @return DecodeStatus::Ok and
 * advances @p p past it, NeedMore on truncation, BadVarint on an
 * overlong encoding.
 */
inline DecodeStatus
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < maxVarintBytes; ++i) {
        if (p + i >= end)
            return DecodeStatus::NeedMore;
        const std::uint8_t b = p[i];
        // The 10th byte holds bits 63.. of the value: anything above
        // 0x01 (or a continuation bit) overflows u64.
        if (i == maxVarintBytes - 1 && b > 0x01)
            return DecodeStatus::BadVarint;
        v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
        if ((b & 0x80) == 0) {
            p += i + 1;
            out = v;
            return DecodeStatus::Ok;
        }
    }
    return DecodeStatus::BadVarint;
}

/**
 * Shared predictor state.  Encoder and decoder each keep one and feed
 * every record through it in stream order; the same freshly-default
 * state on both sides makes encode/decode exact inverses.
 */
struct Codec
{
    std::uint64_t prevPc = 0;
    std::uint64_t prevMemAddr = 0;

    void
    reset()
    {
        prevPc = 0;
        prevMemAddr = 0;
    }
};

/**
 * Serialize @p r against @p c into @p buf (>= maxRecordBytes).
 * @return bytes written
 */
inline std::size_t
encodeRecord(Codec &c, const MemRecord &r, std::uint8_t *buf)
{
    std::uint8_t control = static_cast<std::uint8_t>(r.type) & typeMask;
    if (r.dependsOnPrevLoad)
        control |= flagDependsBit;
    buf[0] = control;
    std::size_t n = 1;
    n += putVarint(zigzag(static_cast<std::int64_t>(r.pc - c.prevPc)),
                   buf + n);
    c.prevPc = r.pc;
    if (r.isMem()) {
        n += putVarint(zigzag(static_cast<std::int64_t>(
                           r.addr - c.prevMemAddr)),
                       buf + n);
        c.prevMemAddr = r.addr;
    }
    return n;
}

/**
 * Decode one record at [@p p, @p end) against @p c.
 *
 * On Ok, @p out is filled, @p c advanced, and @p used is the encoded
 * size.  On any other status @p c and @p used are untouched, so a
 * NeedMore at end-of-buffer can be retried with more bytes (the
 * streaming shape the mapped reader uses).
 */
inline DecodeStatus
decodeRecord(Codec &c, const std::uint8_t *p, const std::uint8_t *end,
             MemRecord &out, std::size_t &used)
{
    const std::uint8_t *cur = p;
    if (cur >= end)
        return DecodeStatus::NeedMore;
    const std::uint8_t control = *cur++;
    if ((control & reservedMask) != 0 ||
        (control & typeMask) >
            static_cast<std::uint8_t>(RecordType::Store))
        return DecodeStatus::BadControlByte;

    std::uint64_t pc_zz = 0;
    DecodeStatus s = getVarint(cur, end, pc_zz);
    if (s != DecodeStatus::Ok)
        return s;

    MemRecord r;
    r.type = static_cast<RecordType>(control & typeMask);
    r.dependsOnPrevLoad = (control & flagDependsBit) != 0;
    r.pc = c.prevPc + static_cast<std::uint64_t>(unzigzag(pc_zz));
    if (r.isMem()) {
        std::uint64_t addr_zz = 0;
        s = getVarint(cur, end, addr_zz);
        if (s != DecodeStatus::Ok)
            return s;
        r.addr = c.prevMemAddr +
                 static_cast<std::uint64_t>(unzigzag(addr_zz));
        c.prevMemAddr = r.addr;
    }
    c.prevPc = r.pc;
    out = r;
    used = static_cast<std::size_t>(cur - p);
    return DecodeStatus::Ok;
}

} // namespace ccm::delta

#endif // CCM_TRACE_DELTA_HH
