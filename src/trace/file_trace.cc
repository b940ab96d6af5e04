#include "trace/file_trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "trace/batch_reader.hh"
#include "trace/delta.hh"
#include "trace/wire.hh"

#if defined(__unix__) || defined(__APPLE__)
#define CCM_HAVE_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#else
#define CCM_HAVE_MMAP 0
#endif

namespace ccm
{

namespace
{

// The per-record codec (packRecord/unpackRecord/plausibleRecord,
// recordBytes) lives in trace/wire.hh, shared with the serve-stream
// frame protocol.
using wire::packRecord;
using wire::plausibleRecord;
using wire::recordBytes;
using wire::unpackRecord;

constexpr char magic[8] = {'C', 'C', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::size_t headerBytes = 16;

std::string
errnoSuffix()
{
    return std::string(" (") + errnoString(errno) + ")";
}

} // namespace

// ---- Writer -------------------------------------------------------

const char *
toString(TraceEncoding e)
{
    return e == TraceEncoding::Delta ? "delta" : "packed";
}

TraceFileWriter::TraceFileWriter(std::FILE *file,
                                 const std::string &path,
                                 TraceEncoding encoding)
    : fp(file), path_(path), encoding_(encoding)
{
}

Expected<std::unique_ptr<TraceFileWriter>>
TraceFileWriter::create(const std::string &path, TraceEncoding encoding)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        return Status::ioError(
            "cannot open trace file for writing: ", path,
            errnoSuffix());
    }
    // Magic, then the version LE, then 4 reserved bytes.
    std::uint8_t header[headerBytes] = {};
    std::memcpy(header,
                encoding == TraceEncoding::Delta ? delta::magic : magic,
                8);
    wire::storeLe32(traceVersion, header + 8);
    if (std::fwrite(header, 1, headerBytes, file) != headerBytes) {
        Status s = Status::ioError(
            "short write of trace header to ", path, errnoSuffix());
        std::fclose(file);
        return s;
    }
    return std::unique_ptr<TraceFileWriter>(
        new TraceFileWriter(file, path, encoding));
}

TraceFileWriter::~TraceFileWriter()
{
    Status s = close();
    if (!s.isOk())
        ccm_warn(s.message());
}

Status
TraceFileWriter::writeChecked(const MemRecord &r)
{
    if (!fp) {
        return Status::ioError("write to closed trace file ", path_);
    }
    // Scratch big enough for either encoding's worst case.
    constexpr std::size_t bufBytes =
        delta::maxRecordBytes > recordBytes ? delta::maxRecordBytes
                                            : recordBytes;
    std::uint8_t buf[bufBytes];
    std::size_t n;
    if (encoding_ == TraceEncoding::Delta) {
        n = delta::encodeRecord(codec_, r, buf);
    } else {
        packRecord(r, buf);
        n = recordBytes;
    }
    if (std::fwrite(buf, 1, n, fp) != n) {
        return Status::ioError("short write to trace file ", path_,
                               errnoSuffix());
    }
    return Status::ok();
}

Expected<std::size_t>
TraceFileWriter::writeAll(TraceSource &src)
{
    src.reset();
    MemRecord chunk[maxTraceBatch];
    std::size_t got;
    std::size_t n = 0;
    while ((got = src.nextBatch(chunk, maxTraceBatch)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            Status s = writeChecked(chunk[i]);
            if (!s.isOk())
                return s;
        }
        n += got;
    }
    return n;
}

Status
TraceFileWriter::close()
{
    if (!fp)
        return Status::ok();
    Status s = Status::ok();
    if (std::fflush(fp) != 0) {
        s = Status::ioError("flush failed for trace file ", path_,
                            errnoSuffix());
    }
    if (std::fclose(fp) != 0 && s.isOk()) {
        s = Status::ioError("close failed for trace file ", path_,
                            errnoSuffix());
    }
    fp = nullptr;
    return s;
}

// ---- Reader -------------------------------------------------------

const char *
traceDefectName(TraceDefect d)
{
    switch (d) {
      case TraceDefect::None:
        return "none";
      case TraceDefect::IoError:
        return "io-error";
      case TraceDefect::ZeroLength:
        return "zero-length";
      case TraceDefect::TruncatedHeader:
        return "truncated-header";
      case TraceDefect::BadMagic:
        return "bad-magic";
      case TraceDefect::BadVersion:
        return "bad-version";
      case TraceDefect::PartialTail:
        return "partial-tail";
      case TraceDefect::MidFileGarbage:
        return "mid-file-garbage";
      case TraceDefect::BadControlByte:
        return "bad-control-byte";
      case TraceDefect::BadVarint:
        return "bad-varint";
    }
    return "unknown";
}

void
TraceReadStats::dump(std::ostream &os, const char *prefix) const
{
    auto line = [&](const char *name, Count v) {
        os << prefix << "." << name << " " << v << "\n";
    };
    line("records_read", recordsRead);
    line("resync_events", resyncEvents);
    line("bytes_skipped", bytesSkipped);
    line("truncated_tail", truncatedTail ? 1 : 0);
    os << prefix << ".first_defect " << traceDefectName(firstDefect)
       << "\n";
}

namespace
{

/** Record the first (most significant) defect seen during a scan. */
void
noteDefect(TraceReadStats &stats, TraceDefect d)
{
    if (stats.firstDefect == TraceDefect::None)
        stats.firstDefect = d;
}

/** Trace file bytes served from a read-only mapping, process-wide. */
obs::Counter &
ingestBytesCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::global().counter(
        "ccm_ingest_bytes_total",
        "Trace file bytes served zero-copy from a read-only mapping "
        "(inputs read() into a buffer are not counted)");
    return c;
}

} // namespace

TraceFileReader::~TraceFileReader()
{
#if CCM_HAVE_MMAP
    if (map_)
        ::munmap(map_, fileBytes_);
#endif
}

Status
TraceFileReader::load()
{
    std::FILE *fp = std::fopen(label_.c_str(), "rb");
    if (!fp) {
        noteDefect(stats_, TraceDefect::IoError);
        return Status::ioError("cannot open trace file: ", label_,
                               errnoSuffix());
    }
#if CCM_HAVE_MMAP
    struct stat st = {};
    if (::fstat(::fileno(fp), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0) {
        const auto bytes = static_cast<std::size_t>(st.st_size);
        void *map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE,
                           ::fileno(fp), 0);
        if (map != MAP_FAILED) {
            // The mapping holds its own reference to the file.
            std::fclose(fp);
            map_ = map;
            file_ = static_cast<const std::uint8_t *>(map);
            fileBytes_ = bytes;
            return Status::ok();
        }
    }
#endif
    // Pipes, devices, a failed map: read() the bytes into one buffer
    // and scan and decode them exactly as a mapping.
    std::uint8_t chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
        owned_.insert(owned_.end(), chunk, chunk + n);
    const bool bad = std::ferror(fp) != 0;
    const std::string why = bad ? errnoSuffix() : "";
    std::fclose(fp);
    if (bad) {
        // A directory opens fine and fails its first read (EISDIR).
        noteDefect(stats_, TraceDefect::IoError);
        return Status::ioError("cannot read trace file: ", label_, why);
    }
    file_ = owned_.data();
    fileBytes_ = owned_.size();
    return Status::ok();
}

Status
TraceFileReader::scan(const TraceReadOptions &opts)
{
    const std::string &path = label_;
    if (fileBytes_ < headerBytes) {
        if (fileBytes_ == 0) {
            // Distinguish the completely empty file: it usually means
            // a producer crashed before writing anything.
            noteDefect(stats_, TraceDefect::ZeroLength);
            return Status::corruptTrace("empty trace file: ", path);
        }
        noteDefect(stats_, TraceDefect::TruncatedHeader);
        return Status::corruptTrace("truncated trace header: ", path);
    }
    if (std::memcmp(file_, delta::magic, 8) == 0) {
        stats_.encoding = TraceEncoding::Delta;
    } else if (std::memcmp(file_, magic, 8) != 0) {
        noteDefect(stats_, TraceDefect::BadMagic);
        return Status::corruptTrace("bad trace magic in ", path);
    }
    const std::uint32_t ver = wire::loadLe32(file_ + 8);
    if (ver != traceVersion) {
        noteDefect(stats_, TraceDefect::BadVersion);
        return Status::unsupported("unsupported trace version ", ver,
                                   " in ", path);
    }
    body_ = file_ + headerBytes;
    validBytes_ = fileBytes_ - headerBytes;
    return stats_.encoding == TraceEncoding::Delta ? scanDelta(opts)
                                                   : scanPacked(opts);
}

std::vector<std::size_t>
packedCheckBounds(std::size_t records)
{
    // 64Ki records (1.5 MiB) per range at least: below that, starting
    // a thread costs about what checking the range does.
    constexpr std::size_t minRangeRecords = std::size_t{1} << 16;
    const std::size_t ranges = std::max<std::size_t>(
        1, std::min(resolveJobCount(0), records / minRangeRecords));
    std::vector<std::size_t> bounds(ranges + 1);
    for (std::size_t i = 0; i <= ranges; ++i)
        bounds[i] = records * i / ranges;
    return bounds;
}

namespace
{

/**
 * True when all @p records whole records at @p body are plausible,
 * checked in packedCheckBounds() ranges, one thread per range.
 */
bool
allPlausible(const std::uint8_t *body, std::size_t records)
{
    const std::vector<std::size_t> bounds = packedCheckBounds(records);
    const std::size_t ranges = bounds.size() - 1;
    std::vector<char> clean(ranges, 0);
    forEachIndex(ranges, ranges, [&](std::size_t r) {
        bool ok = true;
        for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i)
            ok &= plausibleRecord(body + i * recordBytes);
        clean[r] = ok ? 1 : 0;
    });
    return std::all_of(clean.begin(), clean.end(),
                       [](char c) { return c != 0; });
}

} // namespace

Status
TraceFileReader::scanPacked(const TraceReadOptions &opts)
{
    const std::string &path = label_;
    const std::size_t size = validBytes_;
    const std::size_t whole = size / recordBytes;
    std::size_t off = whole * recordBytes;
    if (allPlausible(body_, whole)) {
        // The common case: a clean body is one run.
        if (whole != 0)
            runs_.push_back({body_, whole});
        stats_.recordsRead = whole;
    } else {
        Status s = resyncPacked(opts, off);
        if (!s.isOk())
            return s;
    }

    if (off < size) {
        // Trailing bytes too short to form a record.
        noteDefect(stats_, TraceDefect::PartialTail);
        if (!opts.tolerateTruncatedTail) {
            return Status::corruptTrace(
                "trailing partial record in trace ", path);
        }
        stats_.truncatedTail = true;
        stats_.bytesSkipped += size - off;
        if (!opts.quiet) {
            ccm_warn("trace ", path, ": truncated tail (", size - off,
                     " bytes); treating as end of trace");
        }
    }
    validBytes_ = off;
    for (std::size_t run = 0; run < runs_.size(); ++run) {
        const std::size_t records = runs_[run].records;
        for (std::size_t at = 0; at < records; at += traceChunkRecords)
            chunks_.push_back({{run, at, {}},
                               std::min(traceChunkRecords, records - at)});
    }
    return Status::ok();
}

Status
TraceFileReader::resyncPacked(const TraceReadOptions &opts,
                              std::size_t &off)
{
    const std::string &path = label_;
    const std::size_t size = validBytes_;
    off = 0;
    std::size_t runStart = 0;
    Count records = 0;
    auto closeRun = [&] {
        if (off > runStart) {
            runs_.push_back(
                {body_ + runStart, (off - runStart) / recordBytes});
            records += runs_.back().records;
        }
    };
    while (off + recordBytes <= size) {
        if (plausibleRecord(body_ + off)) {
            off += recordBytes;
            continue;
        }

        // Garbage: resync to the next plausible record boundary.
        closeRun();
        noteDefect(stats_, TraceDefect::MidFileGarbage);
        if (stats_.resyncEvents >= opts.corruptionBudget) {
            stats_.recordsRead = records;
            return Status::corruptTrace(
                "mid-file garbage in trace ", path, " at byte ",
                headerBytes + off,
                opts.corruptionBudget == 0
                    ? ""
                    : " (corruption budget exhausted)");
        }
        ++stats_.resyncEvents;
        const std::size_t start = off;
        ++off;
        while (off + recordBytes <= size &&
               !plausibleRecord(body_ + off)) {
            ++off;
        }
        stats_.bytesSkipped += off - start;
        if (!opts.quiet) {
            ccm_warn("trace ", path, ": skipped ", off - start,
                     " garbage bytes at byte ", headerBytes + start);
        }
        runStart = off;
    }
    closeRun();
    stats_.recordsRead = records;
    return Status::ok();
}

namespace
{

/**
 * Decode the delta body [@p body, @p body + @p size) until it ends or
 * a record fails to decode, appending a view chunk start (offset and
 * codec state, record count still 0) every traceChunkRecords records.
 * @p off and @p records are set to where decoding stopped.  This loop
 * is a delta open's whole cost.  It lives apart from scanDelta's
 * error reporting, with its cursor in locals: inlined there it ran
 * ~30 against ~20 ms on a 4M-record trace (GCC 12, -O2).
 */
delta::DecodeStatus
decodeDeltaBody(const std::uint8_t *body, std::size_t size,
                std::size_t &off, std::size_t &records,
                std::vector<TraceChunk> &chunks)
{
    delta::Codec codec;
    std::size_t at = 0;
    std::size_t n = 0;
    delta::DecodeStatus st = delta::DecodeStatus::Ok;
    while (at < size) {
        if (n % traceChunkRecords == 0)
            chunks.push_back({{at, 0, codec}, 0});
        MemRecord r;
        std::size_t used = 0;
        st = delta::decodeRecord(codec, body + at, body + size, r, used);
        if (st != delta::DecodeStatus::Ok)
            break;
        at += used;
        ++n;
    }
    off = at;
    records = n;
    return st;
}

} // namespace

Status
TraceFileReader::scanDelta(const TraceReadOptions &opts)
{
    // No resync exists here (every record depends on the ones before
    // it), so the corruption budget does not apply: a bad control
    // byte or varint is an error even when a budget is set, and only
    // a clean truncation at end-of-body can be tolerated.
    const std::string &path = label_;
    std::size_t off = 0;
    std::size_t records = 0;
    const delta::DecodeStatus st =
        decodeDeltaBody(body_, validBytes_, off, records, chunks_);
    // A chunk cannot start at the record that failed to decode.
    if (!chunks_.empty() && chunks_.back().start.at == off &&
        st != delta::DecodeStatus::Ok)
        chunks_.pop_back();
    for (std::size_t i = 0; i < chunks_.size(); ++i)
        chunks_[i].records = std::min(traceChunkRecords,
                                      records - i * traceChunkRecords);
    stats_.recordsRead = records;

    const std::size_t at = headerBytes + off;
    switch (st) {
      case delta::DecodeStatus::Ok:
        return Status::ok();
      case delta::DecodeStatus::NeedMore:
        noteDefect(stats_, TraceDefect::PartialTail);
        if (!opts.tolerateTruncatedTail) {
            return Status::corruptTrace(
                "trailing partial record in delta trace ", path);
        }
        stats_.truncatedTail = true;
        stats_.bytesSkipped += validBytes_ - off;
        if (!opts.quiet) {
            ccm_warn("trace ", path, ": truncated delta tail (",
                     validBytes_ - off,
                     " bytes); treating as end of trace");
        }
        validBytes_ = off;
        return Status::ok();
      case delta::DecodeStatus::BadControlByte:
        noteDefect(stats_, TraceDefect::BadControlByte);
        return Status::corruptTrace(
            "bad control byte in delta trace ", path, " at byte ", at,
            " (delta streams cannot be resynced)");
      case delta::DecodeStatus::BadVarint:
        noteDefect(stats_, TraceDefect::BadVarint);
        return Status::corruptTrace(
            "overlong varint in delta trace ", path, " at byte ", at,
            " (delta streams cannot be resynced)");
    }
    return Status::ok();
}

Expected<std::unique_ptr<TraceFileReader>>
TraceFileReader::open(const std::string &path,
                      const TraceReadOptions &opts,
                      TraceReadStats *stats)
{
    std::unique_ptr<TraceFileReader> rd(new TraceFileReader());
    rd->label_ = path;
    Status s = rd->load();
    if (s.isOk())
        s = rd->scan(opts);
    if (stats)
        *stats = rd->stats_;
    if (!s.isOk())
        return s;
    if (rd->map_)
        ingestBytesCounter().inc(rd->fileBytes_);
    return rd;
}

TraceDefect
probeTraceFile(const std::string &path, TraceReadStats *stats)
{
    TraceReadOptions opts;
    opts.corruptionBudget = ~std::size_t{0};
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;

    TraceReadStats local;
    TraceFileReader::open(path, opts, &local);
    if (stats)
        *stats = local;
    return local.firstDefect;
}

void
TraceFileReader::reset()
{
    cursor_ = {};
}

bool
TraceFileReader::next(MemRecord &out)
{
    return nextBatch(&out, 1) == 1;
}

std::size_t
TraceFileReader::nextBatch(MemRecord *out, std::size_t n)
{
    return read(cursor_, out, n);
}

std::size_t
TraceFileReader::read(TracePosition &cursor, MemRecord *out,
                      std::size_t n) const
{
    // The scan validated every byte the defect map covers, so decoding
    // here cannot fail, and where batch boundaries fall cannot change
    // which records are delivered.  The cursor is copied into locals:
    // written through the reference, it could alias the records.
    std::size_t got = 0;
    std::size_t at = cursor.at;
    if (stats_.encoding == TraceEncoding::Packed) {
        std::size_t within = cursor.within;
        while (got < n && at < runs_.size()) {
            const wire::RecordSpan &run = runs_[at];
            const std::size_t take = std::min(n - got, run.records - within);
            const std::uint8_t *p = run.data + within * recordBytes;
            if constexpr (wire::checkedRecordIsMemRecord) {
                std::memcpy(out + got, p, take * recordBytes);
            } else {
                for (std::size_t i = 0; i < take; ++i) {
                    out[got + i] = unpackRecord(p);
                    p += recordBytes;
                }
            }
            got += take;
            within += take;
            if (within == run.records) {
                ++at;
                within = 0;
            }
        }
        cursor.at = at;
        cursor.within = within;
        return got;
    }

    delta::Codec codec = cursor.codec;
    const std::uint8_t *end = body_ + validBytes_;
    while (got < n && at < validBytes_) {
        std::size_t used = 0;
        if (delta::decodeRecord(codec, body_ + at, end, out[got], used) !=
            delta::DecodeStatus::Ok) {
            ccm_panic("scanned delta trace failed to re-decode: ",
                      label_);
        }
        at += used;
        ++got;
    }
    cursor.at = at;
    cursor.codec = codec;
    return got;
}

} // namespace ccm
