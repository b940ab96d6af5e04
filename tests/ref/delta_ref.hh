/**
 * @file
 * A deliberately naive reference decoder of CCMTRACD delta trace
 * files, written from docs/TRACE_FORMAT.md for differential tests of
 * TraceFileReader.
 *
 *  - The 16-byte header is "CCMTRACD", version 1 little-endian, then
 *    four reserved bytes.
 *  - A record is a control byte (type in bits 0-1, 3 invalid; the
 *    depends flag in bit 2; bits 3-7 zero), a varint of the zigzagged
 *    pc delta against the previous record, and, for a load or store,
 *    a varint of the zigzagged address delta against the previous
 *    memory record.
 *  - A varint is at most ten little-endian 7-bit groups; its tenth
 *    byte may only be 0 or 1.
 *
 * It walks the bytes one at a time with plain integer arithmetic and
 * shares no code with trace/delta.hh.
 */

#ifndef CCM_TESTS_REF_DELTA_REF_HH
#define CCM_TESTS_REF_DELTA_REF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/file_trace.hh"
#include "trace/record.hh"

namespace ccm::ref
{

/** What a delta trace file holds, by the format's definition. */
struct RefDeltaDecode
{
    /** Every record before the first defect. */
    std::vector<MemRecord> records;
    /** The first defect (None for a clean file). */
    TraceDefect defect = TraceDefect::None;
    /**
     * File byte offset of the record the defect is in (the control
     * byte), or of the end of the last whole record for a clean file.
     */
    std::size_t offset = 0;
};

/** Decode the delta trace file @p file byte by byte. */
inline RefDeltaDecode
refDecodeDelta(const std::vector<std::uint8_t> &file)
{
    RefDeltaDecode out;
    if (file.empty()) {
        out.defect = TraceDefect::ZeroLength;
        return out;
    }
    if (file.size() < 16) {
        out.defect = TraceDefect::TruncatedHeader;
        return out;
    }
    const char magic[] = "CCMTRACD";
    for (std::size_t i = 0; i < 8; ++i) {
        if (file[i] != static_cast<std::uint8_t>(magic[i])) {
            out.defect = TraceDefect::BadMagic;
            return out;
        }
    }
    const std::uint32_t version = file[8] + file[9] * 256u +
                                  file[10] * 65536u +
                                  file[11] * 16777216u;
    if (version != 1) {
        out.defect = TraceDefect::BadVersion;
        return out;
    }

    // One varint at pos; false with the defect set when there is none.
    auto varint = [&](std::size_t &pos, std::uint64_t &value) {
        value = 0;
        std::uint64_t scale = 1;
        for (int i = 0; i < 10; ++i) {
            if (pos >= file.size()) {
                out.defect = TraceDefect::PartialTail;
                return false;
            }
            const std::uint8_t b = file[pos++];
            if (i == 9 && b > 1) {
                out.defect = TraceDefect::BadVarint;
                return false;
            }
            value += (b % 128) * scale;
            if (b < 128)
                return true;
            scale *= 128;
        }
        out.defect = TraceDefect::BadVarint;
        return false;
    };
    auto unzigzag = [](std::uint64_t v) {
        const std::uint64_t half = v / 2;
        return v % 2 == 0 ? half : ~half;
    };

    std::uint64_t prev_pc = 0;
    std::uint64_t prev_addr = 0;
    std::size_t pos = 16;
    while (pos < file.size()) {
        out.offset = pos;
        const std::uint8_t control = file[pos++];
        const unsigned type = control % 4;
        if (control / 8 != 0 || type == 3) {
            out.defect = TraceDefect::BadControlByte;
            return out;
        }
        MemRecord r;
        r.type = static_cast<RecordType>(type);
        r.dependsOnPrevLoad = (control / 4) % 2 == 1;
        std::uint64_t pc_delta = 0;
        if (!varint(pos, pc_delta))
            return out;
        r.pc = prev_pc + unzigzag(pc_delta);
        if (type != 0) {
            std::uint64_t addr_delta = 0;
            if (!varint(pos, addr_delta))
                return out;
            r.addr = prev_addr + unzigzag(addr_delta);
            prev_addr = r.addr;
        }
        prev_pc = r.pc;
        out.records.push_back(r);
    }
    out.offset = pos;
    return out;
}

} // namespace ccm::ref

#endif // CCM_TESTS_REF_DELTA_REF_HH
