/**
 * @file
 * The 24-byte packed MemRecord wire codec shared by every byte-level
 * carrier of records: the CCMTRACE file format (file_trace) and the
 * ccm-serve stream frame protocol (serve/frame).
 *
 * Keeping pack/unpack/plausibility in one place means a record that
 * round-trips through a trace file and one that round-trips through a
 * stream frame are byte-for-byte the same 24 bytes, and both carriers
 * resync past garbage using the identical believability test.
 */

#ifndef CCM_TRACE_WIRE_HH
#define CCM_TRACE_WIRE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "trace/record.hh"

namespace ccm::wire
{

/** Packed size of one MemRecord on any byte carrier. */
inline constexpr std::size_t recordBytes = 24;

inline constexpr std::uint8_t flagDependsOnPrevLoad = 0x1;
inline constexpr std::uint8_t knownFlags = flagDependsOnPrevLoad;

/** Store @p v at @p buf as 8 little-endian bytes. */
inline void
storeLe64(std::uint64_t v, std::uint8_t *buf)
{
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * Read 8 little-endian bytes at @p buf (any alignment).  The memcpy
 * compiles to one load; the bytes are swapped only on a big-endian
 * host.
 */
inline std::uint64_t
loadLe64(const std::uint8_t *buf)
{
    std::uint64_t v = 0;
    std::memcpy(&v, buf, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Store @p v at @p buf as 4 little-endian bytes. */
inline void
storeLe32(std::uint32_t v, std::uint8_t *buf)
{
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Read 4 little-endian bytes at @p buf (any alignment), as loadLe64. */
inline std::uint32_t
loadLe32(const std::uint8_t *buf)
{
    std::uint32_t v = 0;
    std::memcpy(&v, buf, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

/**
 * Serialize @p r into 24 bytes at @p buf.  Fields are little-endian
 * by explicit byte packing, not host memcpy, so traces and stream
 * frames produced on any host decode identically everywhere
 * (docs/TRACE_FORMAT.md: "All integers are little-endian").
 */
inline void
packRecord(const MemRecord &r, std::uint8_t *buf)
{
    storeLe64(r.pc, buf + 0);
    storeLe64(r.addr, buf + 8);
    buf[16] = static_cast<std::uint8_t>(r.type);
    buf[17] = r.dependsOnPrevLoad ? flagDependsOnPrevLoad : 0;
    std::memset(buf + 18, 0, 6);
}

/**
 * True where a packed record that passes plausibleRecord() is, byte
 * for byte, a MemRecord: a little-endian host, and MemRecord's fields
 * at the packed offsets (the flags byte is then 0 or 1, a valid bool,
 * and the padding zero).  Decoding checked records is then a copy.
 */
inline constexpr bool checkedRecordIsMemRecord =
    std::endian::native == std::endian::little &&
    sizeof(MemRecord) == recordBytes && offsetof(MemRecord, pc) == 0 &&
    offsetof(MemRecord, addr) == 8 && offsetof(MemRecord, type) == 16 &&
    offsetof(MemRecord, dependsOnPrevLoad) == 17 &&
    flagDependsOnPrevLoad == 1;

/**
 * Whole packed records, back to back: @p records * recordBytes bytes
 * at @p data, every one of them already checked plausible.
 */
struct RecordSpan
{
    const std::uint8_t *data = nullptr;
    std::size_t records = 0;
};

/** Deserialize 24 bytes at @p buf (assumed plausible) into a record. */
inline MemRecord
unpackRecord(const std::uint8_t *buf)
{
    MemRecord r;
    r.pc = loadLe64(buf + 0);
    r.addr = loadLe64(buf + 8);
    r.type = static_cast<RecordType>(buf[16]);
    r.dependsOnPrevLoad = (buf[17] & flagDependsOnPrevLoad) != 0;
    return r;
}

/**
 * A 24-byte window can only be a record if the type is a known
 * RecordType, no unknown flag bits are set, and the padding is zero —
 * the invariants packRecord establishes.  Used to find the next
 * believable record boundary when resyncing past garbage.
 *
 * Bytes 16..23 (type, flags, padding) are one little-endian word:
 * the type is its low byte, and every bit above it other than a
 * known flag must be clear.
 */
inline bool
plausibleRecord(const std::uint8_t *buf)
{
    constexpr std::uint64_t typeMask = 0xff;
    constexpr std::uint64_t allowed =
        typeMask | std::uint64_t{knownFlags} << 8;
    const std::uint64_t word = loadLe64(buf + 16);
    return (word & typeMask) <=
               static_cast<std::uint8_t>(RecordType::Store) &&
           (word & ~allowed) == 0;
}

} // namespace ccm::wire

#endif // CCM_TRACE_WIRE_HH
