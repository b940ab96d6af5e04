/**
 * @file
 * tracecheck — validate and repair CCMTRACE files, and validate CCMF
 * frame-stream captures (ccm-stream --frames-out).
 *
 *   tracecheck validate TRACE.bin [--quiet]
 *   tracecheck repair IN.bin OUT.bin [--budget N]
 *   tracecheck frames CAPTURE.bin [--quiet]
 *
 * `validate` classifies the file and exits with a deterministic code
 * per defect class, so sweep scripts can triage a directory of traces
 * without parsing output:
 *
 *   0  clean
 *   1  usage error
 *   2  cannot open / read (io-error)
 *   3  zero-length file
 *   4  truncated header
 *   5  bad magic
 *   6  unsupported version
 *   7  trailing partial record
 *   8  mid-file garbage
 *   9  repair failed
 *   10 bad delta control byte
 *   11 bad / overlong varint
 *
 * `frames` runs the ccm-serve frame parser over a captured stream and
 * reports its FrameStats; codes continue the scheme (12+ so they
 * never collide with the file codes above):
 *
 *   12  no end frame (stream was cut off)
 *   13  garbage between frames (bad-magic)
 *   14  implausible frame header
 *   15  checksum mismatch
 *   16  implausible records inside a frame
 *   17  malformed hello frame
 *   18  truncated trailing frame
 *
 * `repair` re-reads IN tolerantly (resyncing past garbage, treating a
 * truncated tail as end-of-trace) and writes the surviving records to
 * OUT as a clean v1 trace.  It exits 0 when OUT was written — even
 * when records had to be dropped (that is the point) — and nonzero
 * when IN's header is unusable or OUT cannot be written.
 *
 * The format and these semantics are documented in
 * docs/TRACE_FORMAT.md.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "serve/frame.hh"
#include "trace/file_trace.hh"

namespace
{

using namespace ccm;

constexpr int exitOk = 0;
constexpr int exitUsage = 1;
constexpr int exitRepairFailed = 9;

/** Deterministic defect -> exit-code mapping (documented above). */
int
defectExitCode(TraceDefect d)
{
    switch (d) {
      case TraceDefect::None:
        return exitOk;
      case TraceDefect::IoError:
        return 2;
      case TraceDefect::ZeroLength:
        return 3;
      case TraceDefect::TruncatedHeader:
        return 4;
      case TraceDefect::BadMagic:
        return 5;
      case TraceDefect::BadVersion:
        return 6;
      case TraceDefect::PartialTail:
        return 7;
      case TraceDefect::MidFileGarbage:
        return 8;
      case TraceDefect::BadControlByte:
        return 10;
      case TraceDefect::BadVarint:
        return 11;
    }
    return exitUsage;
}

/** Frame-stream defect -> exit-code mapping (documented above). */
int
frameDefectExitCode(serve::FrameDefect d)
{
    switch (d) {
      case serve::FrameDefect::None:
        return exitOk;
      case serve::FrameDefect::BadMagic:
        return 13;
      case serve::FrameDefect::BadHeader:
        return 14;
      case serve::FrameDefect::BadChecksum:
        return 15;
      case serve::FrameDefect::BadRecord:
        return 16;
      case serve::FrameDefect::BadHello:
        return 17;
      case serve::FrameDefect::TruncatedTail:
        return 18;
    }
    return exitUsage;
}

void
usage()
{
    // Usage goes to stdout like the other tools' --help text.
    std::cout <<
        "usage: tracecheck validate TRACE.bin [--quiet]\n"
        "       tracecheck repair IN.bin OUT.bin [--budget N]\n"
        "       tracecheck frames CAPTURE.bin [--quiet]\n"
        "validate exit codes: 0 ok, 2 io-error, 3 zero-length,\n"
        "  4 truncated-header, 5 bad-magic, 6 bad-version,\n"
        "  7 partial-tail, 8 mid-file-garbage,\n"
        "  10 bad-control-byte, 11 bad-varint (delta traces)\n"
        "frames exit codes: 0 ok, 2 io-error, 3 zero-length,\n"
        "  12 no-end-frame, 13 bad-magic, 14 bad-header,\n"
        "  15 bad-checksum, 16 bad-record, 17 bad-hello,\n"
        "  18 truncated-tail\n";
}

int
cmdValidate(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return exitUsage;
    }
    std::string path = argv[2];
    bool quiet = argc > 3 && std::strcmp(argv[3], "--quiet") == 0;

    TraceReadStats stats;
    TraceDefect defect = probeTraceFile(path, &stats);
    if (!quiet) {
        std::cout << "file           " << path << "\n"
                  << "verdict        " << traceDefectName(defect)
                  << "\n";
        stats.dump(std::cout);
    }
    return defectExitCode(defect);
}

int
cmdRepair(int argc, char **argv)
{
    if (argc < 4) {
        usage();
        return exitUsage;
    }
    std::string in = argv[2];
    std::string out = argv[3];
    TraceReadOptions opts;
    opts.corruptionBudget = ~std::size_t{0};
    opts.tolerateTruncatedTail = true;
    ArgCursor args(argc, argv, 4);
    while (args.next()) {
        Status s = args.flag() == "--budget"
                       ? args.number(opts.corruptionBudget)
                       : Status::badConfig("unknown repair option '",
                                           args.flag(), "'");
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return exitUsage;
        }
    }

    TraceReadStats stats;
    auto reader = TraceFileReader::open(in, opts, &stats);
    if (!reader.ok()) {
        // Header-level damage (or budget exhaustion): nothing we can
        // trust enough to salvage.
        CCM_LOG_ERROR("cannot repair: ", reader.status().toString());
        return stats.firstDefect == TraceDefect::None
                   ? exitRepairFailed
                   : defectExitCode(stats.firstDefect);
    }

    auto writer = TraceFileWriter::create(out);
    if (!writer.ok()) {
        CCM_LOG_ERROR("cannot repair: ",
                      writer.status().toString());
        return exitRepairFailed;
    }
    auto kept = writer.value()->writeAll(*reader.value());
    Status ws = kept.ok() ? writer.value()->close() : kept.status();
    if (!ws.isOk()) {
        CCM_LOG_ERROR("cannot repair: ", ws.toString());
        return exitRepairFailed;
    }

    std::cout << "repaired       " << in << " -> " << out << "\n"
              << "records kept   " << kept.value() << "\n"
              << "resync events  " << stats.resyncEvents << "\n"
              << "bytes dropped  " << stats.bytesSkipped << "\n"
              << "truncated tail " << (stats.truncatedTail ? "yes"
                                                           : "no")
              << "\n";
    return exitOk;
}

int
cmdFrames(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return exitUsage;
    }
    std::string path = argv[2];
    bool quiet = argc > 3 && std::strcmp(argv[3], "--quiet") == 0;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (!quiet)
            CCM_LOG_ERROR("cannot open '", path, "'");
        return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (in.bad()) {
        if (!quiet)
            CCM_LOG_ERROR("cannot read '", path, "'");
        return 2;
    }
    if (bytes.empty())
        return 3;

    // Count-only sink: the parser's FrameStats carry the verdict.
    struct CountingSink final : serve::FrameSink
    {
        std::string streamName;
        void
        onHello(std::uint32_t, const std::string &name) override
        {
            if (streamName.empty())
                streamName = name;
        }
        void onRecords(const ccm::MemRecord *, std::size_t) override {}
        void onEnd() override {}
    } sink;

    serve::FrameParser parser;
    parser.feed(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                bytes.size(), sink);
    parser.finish(sink);
    const serve::FrameStats &fs = parser.stats();

    if (!quiet) {
        std::cout << "file           " << path << "\n"
                  << "stream         "
                  << (sink.streamName.empty() ? "(no hello)"
                                              : sink.streamName)
                  << "\n"
                  << "frames         " << fs.frames << "\n"
                  << "records        " << fs.records << "\n"
                  << "end frame      "
                  << (parser.sawEnd() ? "yes" : "no") << "\n"
                  << "malformed      " << fs.malformedFrames << "\n"
                  << "resync events  " << fs.resyncEvents << "\n"
                  << "bytes skipped  " << fs.bytesSkipped << "\n"
                  << "bad records    " << fs.badRecords << "\n"
                  << "first defect   "
                  << serve::frameDefectName(fs.firstDefect) << "\n";
    }
    if (!fs.clean())
        return frameDefectExitCode(fs.firstDefect);
    return parser.sawEnd() ? exitOk : 12;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return exitUsage;
    }
    std::string cmd = argv[1];
    if (cmd == "validate")
        return cmdValidate(argc, argv);
    if (cmd == "repair")
        return cmdRepair(argc, argv);
    if (cmd == "frames")
        return cmdFrames(argc, argv);
    usage();
    return exitUsage;
}
