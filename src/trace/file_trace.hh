/**
 * @file
 * Binary trace file I/O.
 *
 * Two on-disk encodings share the 16-byte header shape
 * (8-byte magic, u32 version, u32 reserved):
 *
 *  - "CCMTRACE": packed little-endian records,
 *      u64 pc | u64 addr | u8 type | u8 flags | 6 bytes padding
 *    24 bytes per record.  Simple enough to write from any tracer
 *    (e.g. a Pin/DynamoRIO tool or a converted ChampSim trace).
 *  - "CCMTRACD": delta-compressed records (control byte + zigzag
 *    LEB128 varints of pc/addr deltas; trace/delta.hh), a fraction of
 *    the packed size for real traces.
 *
 * The reader sniffs the magic, so every consumer takes either
 * encoding transparently.  The full layouts and the reading rules are
 * documented in docs/TRACE_FORMAT.md.
 *
 * There is one reader, TraceFileReader.  It maps the file read-only
 * (read() into one owned buffer only when the input cannot be
 * mapped) and scans it once at open(): the scan applies
 * TraceReadOptions, so a damaged file either fails with a Status or,
 * within the options' tolerance, yields a defect map — garbage
 * resynced past (packed only: a delta stream decodes relative to all
 * earlier bytes, so mid-stream damage is an error regardless of
 * budget) and a truncated tail cut off.  Records are then decoded
 * straight from the bytes; nothing is copied.
 */

#ifndef CCM_TRACE_FILE_TRACE_HH
#define CCM_TRACE_FILE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hh"
#include "trace/delta.hh"
#include "trace/source.hh"
#include "trace/wire.hh"

namespace ccm
{

/** Which on-disk record encoding a trace file uses. */
enum class TraceEncoding
{
    Packed, ///< "CCMTRACE": fixed 24-byte records, resyncable
    Delta,  ///< "CCMTRACD": varint pc/addr deltas, not resyncable
};

/** Stable lower-case name ("packed" / "delta"). */
const char *toString(TraceEncoding e);

/** Write records to a binary trace file. */
class TraceFileWriter
{
  public:
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Open @p path for writing; error status instead of dying. */
    static Expected<std::unique_ptr<TraceFileWriter>>
    create(const std::string &path,
           TraceEncoding encoding = TraceEncoding::Packed);

    /** Append one record; error status on a short write. */
    Status writeChecked(const MemRecord &r);

    /**
     * Drain @p src (reset first) into the file.  @return the record
     * count, or the first short write's error.
     */
    Expected<std::size_t> writeAll(TraceSource &src);

    /**
     * Flush and close, reporting flush/close failures (a full disk
     * often only surfaces here).  Safe to call repeatedly; the
     * destructor calls it and warns on error.
     */
    Status close();

  private:
    TraceFileWriter(std::FILE *file, const std::string &path,
                    TraceEncoding encoding);

    std::FILE *fp = nullptr;
    std::string path_;
    TraceEncoding encoding_ = TraceEncoding::Packed;
    /** Delta predictor state (unused for packed writes). */
    delta::Codec codec_;
};

/** What, if anything, is wrong with a trace file. */
enum class TraceDefect
{
    None = 0,
    IoError,         ///< cannot open/read the file
    ZeroLength,      ///< file is completely empty
    TruncatedHeader, ///< shorter than the 16-byte header
    BadMagic,        ///< leading bytes are not "CCMTRACE"
    BadVersion,      ///< recognized header, unsupported version
    PartialTail,     ///< trailing bytes form no complete record
    MidFileGarbage,  ///< implausible record bytes inside the body
    BadControlByte,  ///< delta record with an invalid control byte
    BadVarint,       ///< delta record with an overlong varint
};

/** Stable lower-case name of @p d (e.g. "bad-magic"). */
const char *traceDefectName(TraceDefect d);

/** Knobs for tolerant trace loading (defaults are fully strict). */
struct TraceReadOptions
{
    /**
     * Maximum number of resync events (runs of garbage bytes skipped
     * to the next plausible record boundary).  0 = any garbage is an
     * error.
     */
    std::size_t corruptionBudget = 0;

    /** Treat a trailing partial record as end-of-trace + warning. */
    bool tolerateTruncatedTail = false;

    /** Suppress the warnings normally emitted for tolerated defects. */
    bool quiet = false;
};

/** Diagnostics from one load, MemStats-style dumpable. */
struct TraceReadStats
{
    Count recordsRead = 0;
    Count resyncEvents = 0;   ///< garbage runs skipped (packed only)
    Count bytesSkipped = 0;   ///< total garbage bytes passed over
    bool truncatedTail = false;

    /** Which encoding the header announced (meaningful when read). */
    TraceEncoding encoding = TraceEncoding::Packed;

    /** First defect seen, including ones that were tolerated. */
    TraceDefect firstDefect = TraceDefect::None;

    bool clean() const
    {
        return firstDefect == TraceDefect::None;
    }

    /** Write "trace.<stat> <value>" lines (gem5-style stats dump). */
    void dump(std::ostream &os, const char *prefix = "trace") const;
};

/**
 * Classify @p path without failing: scans with unlimited corruption
 * budget and tail tolerance and reports the first defect found
 * (TraceDefect::None for a clean file).  @p stats, when non-null,
 * receives the full scan diagnostics.
 */
TraceDefect probeTraceFile(const std::string &path,
                           TraceReadStats *stats = nullptr);

/**
 * The record ranges the open-time check of a packed body with
 * @p records whole records runs on: range i is records
 * [bounds[i], bounds[i + 1]).  One range per hardware thread, but
 * never one shorter than a fixed minimum, so a small trace is checked
 * as one range on the calling thread.
 */
std::vector<std::size_t> packedCheckBounds(std::size_t records);

/**
 * Replay a binary trace file of either encoding, zero-copy.
 *
 * open() maps the file read-only, or read()s it into one owned buffer
 * when it cannot be mapped (not a regular file, mmap failed, no mmap
 * on the platform).  One scan then checks the header and every record
 * boundary under TraceReadOptions and leaves a defect map: the runs of
 * valid packed records between resynced garbage (a clean file is a
 * single run) and the end of the last whole record.  next() and
 * nextBatch() decode straight from the bytes along that map and
 * cannot fail.  The reader is also its own TraceView: the scan cuts
 * the trace into chunks of traceChunkRecords records (packed: within
 * each run; delta: within each byte range, at the offset and codec
 * state it reached), so
 * consumers can decode a whole file in parallel.
 *
 * A packed body is first checked optimistically: its whole records
 * are split into packedCheckBounds() ranges, checked on one thread
 * each.  Only when a range holds an implausible record does the
 * serial resync scan run, from byte 0, so every Status, byte offset,
 * TraceReadStats field and warning is the serial scan's own.
 *
 * A delta body is decoded in fixed 1 MiB byte ranges in parallel,
 * each from a guessed first record boundary; a range is kept only if
 * it starts where the one before it stopped, else it is decoded again
 * from there, so the chunks, counts and first defect are the serial
 * decode's.  Its chunks restart at each range.
 */
class TraceFileReader : public TraceSource, public TraceView
{
  public:
    /**
     * Open and scan @p path according to @p opts.  @p stats, when
     * non-null, receives the scan diagnostics even when the open
     * fails: its firstDefect names what went wrong.
     */
    static Expected<std::unique_ptr<TraceFileReader>>
    open(const std::string &path, const TraceReadOptions &opts = {},
         TraceReadStats *stats = nullptr);

    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    bool next(MemRecord &out) override;
    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override;
    std::string name() const override { return label_; }

    /**
     * Packed: chunks cut from the checked runs, the cursor a run and
     * a record within it.  Delta: chunk starts recorded by the open
     * scan, the cursor a body byte offset plus the codec state.
     */
    const TraceView *view() const override { return this; }
    const std::vector<TraceChunk> &chunks() const override
    {
        return chunks_;
    }
    std::size_t read(TracePosition &cursor, MemRecord *out,
                     std::size_t n) const override;

    /** Records one pass delivers (known from the scan). */
    std::size_t size() const { return stats_.recordsRead; }

    /** Diagnostics from the scan (skips, resyncs, truncation). */
    const TraceReadStats &readStats() const { return stats_; }

    /**
     * The packed defect map: one span of whole, checked records per
     * run, in stream order.  Empty for a delta trace.
     */
    const std::vector<wire::RecordSpan> &packedRuns() const
    {
        return runs_;
    }

  private:
    TraceFileReader() = default;

    /** Map or read() the whole file into file_. */
    Status load();
    /** Check the header, then scan the body into the defect map. */
    Status scan(const TraceReadOptions &opts);
    Status scanPacked(const TraceReadOptions &opts);
    /** The resync scan: fills runs_, sets @p off past the last record. */
    Status resyncPacked(const TraceReadOptions &opts, std::size_t &off);
    Status scanDelta(const TraceReadOptions &opts);

    void *map_ = nullptr; ///< whole-file mapping, if mapped
    std::vector<std::uint8_t> owned_; ///< the read() fallback's bytes
    const std::uint8_t *file_ = nullptr; ///< map_ or owned_.data()
    std::size_t fileBytes_ = 0;

    const std::uint8_t *body_ = nullptr; ///< first byte after header
    std::size_t validBytes_ = 0; ///< body bytes up to the last record
    std::vector<wire::RecordSpan> runs_; ///< packed defect map

    std::vector<TraceChunk> chunks_; ///< the view

    TracePosition cursor_; ///< where next() and nextBatch() read

    std::string label_;
    TraceReadStats stats_;
};

} // namespace ccm

#endif // CCM_TRACE_FILE_TRACE_HH
