/**
 * @file
 * ccm-trace — trace-file utility: generate binary traces from the
 * synthetic workloads, convert between the packed and delta
 * encodings, and inspect existing trace files.
 *
 *   ccm-trace gen tomcatv out.bin --refs 1000000 --seed 7
 *   ccm-trace gen tomcatv out.bin --delta
 *   ccm-trace pack in.bin out.bin      # any encoding -> delta
 *   ccm-trace unpack in.bin out.bin    # any encoding -> packed
 *   ccm-trace info out.bin
 */

#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/log.hh"
#include "trace/file_trace.hh"
#include "workloads/registry.hh"

namespace
{

/** Write @p src to a new trace file; the count, or the first error. */
ccm::Expected<std::size_t>
writeTrace(ccm::TraceSource &src, const std::string &path,
           ccm::TraceEncoding enc)
{
    auto wr = ccm::TraceFileWriter::create(path, enc);
    if (!wr.ok())
        return wr.status();
    auto n = wr.value()->writeAll(src);
    ccm::Status s = n.ok() ? wr.value()->close() : n.status();
    if (!s.isOk())
        return s;
    return n;
}

int
cmdGen(int argc, char **argv)
{
    using namespace ccm;
    if (argc < 4) {
        CCM_LOG_ERROR("usage: ccm-trace gen WORKLOAD OUT.bin "
                      "[--refs N] [--seed N] [--delta]");
        return 1;
    }
    std::string name = argv[2];
    std::string path = argv[3];
    std::size_t refs = 1'000'000;
    std::uint64_t seed = 42;
    TraceEncoding enc = TraceEncoding::Packed;
    ArgCursor args(argc, argv, 4);
    while (args.next()) {
        const std::string &a = args.flag();
        Status s;
        if (a == "--delta") {
            enc = TraceEncoding::Delta;
        } else if (a == "--refs") {
            s = args.number(refs);
        } else if (a == "--seed") {
            s = args.number(seed);
        } else {
            CCM_LOG_ERROR("unknown gen option '", a, "'");
            return 1;
        }
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 1;
        }
    }

    auto wl = makeWorkloadChecked(name, refs, seed);
    if (!wl.ok()) {
        CCM_LOG_ERROR(wl.status().toString());
        return 1;
    }
    auto n = writeTrace(*wl.value(), path, enc);
    if (!n.ok()) {
        CCM_LOG_ERROR(n.status().toString());
        return 1;
    }
    std::cout << "wrote " << n.value() << " records (" << refs
              << " memory refs, " << toString(enc) << ") to " << path
              << "\n";
    return 0;
}

/** Shared body of pack/unpack: re-encode @p in as @p enc at @p out. */
int
cmdConvert(int argc, char **argv, ccm::TraceEncoding enc)
{
    using namespace ccm;
    if (argc < 4) {
        CCM_LOG_ERROR("usage: ccm-trace ",
                      enc == TraceEncoding::Delta ? "pack" : "unpack",
                      " IN.bin OUT.bin");
        return 1;
    }
    auto rd = TraceFileReader::open(argv[2]);
    if (!rd.ok()) {
        CCM_LOG_ERROR(rd.status().toString());
        return 1;
    }
    auto n = writeTrace(*rd.value(), argv[3], enc);
    if (!n.ok()) {
        CCM_LOG_ERROR(n.status().toString());
        return 1;
    }
    std::cout << "wrote " << n.value() << " records ("
              << toString(rd.value()->readStats().encoding) << " -> "
              << toString(enc) << ") to " << argv[3] << "\n";
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    using namespace ccm;
    if (argc < 3) {
        CCM_LOG_ERROR("usage: ccm-trace info TRACE.bin");
        return 1;
    }
    auto opened = TraceFileReader::open(argv[2]);
    if (!opened.ok()) {
        CCM_LOG_ERROR(opened.status().toString());
        return 1;
    }
    TraceFileReader &rd = *opened.value();
    std::size_t loads = 0, stores = 0, nonmem = 0, deps = 0;
    Addr lo = invalidAddr, hi = 0;
    MemRecord r;
    while (rd.next(r)) {
        if (r.isLoad())
            ++loads;
        else if (r.isStore())
            ++stores;
        else
            ++nonmem;
        if (r.isMem()) {
            lo = std::min(lo, r.addr);
            hi = std::max(hi, r.addr);
            deps += r.dependsOnPrevLoad ? 1 : 0;
        }
    }
    std::cout << "encoding       "
              << toString(rd.readStats().encoding) << "\n"
              << "records        " << rd.size() << "\n"
              << "loads          " << loads << "\n"
              << "stores         " << stores << "\n"
              << "non-memory     " << nonmem << "\n"
              << "dependent lds  " << deps << "\n";
    if (loads + stores > 0) {
        std::cout << std::hex << "addr range     [0x" << lo << ", 0x"
                  << hi << "]" << std::dec << "\n"
                  << "footprint      " << (hi - lo) / 1024
                  << " KB span\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        CCM_LOG_ERROR("usage: ccm-trace gen|pack|unpack|info ...");
        return 1;
    }
    std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "pack")
        return cmdConvert(argc, argv, ccm::TraceEncoding::Delta);
    if (cmd == "unpack")
        return cmdConvert(argc, argv, ccm::TraceEncoding::Packed);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    CCM_LOG_ERROR("unknown subcommand '", cmd, "'");
    return 1;
}
