/**
 * @file
 * Trace tooling example: capture a synthetic workload to a binary
 * trace file, replay it from disk, and verify the classification
 * results are identical — the workflow for plugging in externally
 * captured traces (e.g. converted ChampSim/Pin traces).
 *
 *   $ ./trace_roundtrip [workload] [path]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "mct/classify_run.hh"
#include "trace/file_trace.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace ccm;

    std::string name = argc > 1 ? argv[1] : "compress";
    std::string path = argc > 2 ? argv[2] : "/tmp/ccm_example.trace";

    auto wl = makeWorkload(name, 200'000, 42);
    if (!wl) {
        std::cerr << "unknown workload '" << name << "'\n";
        return 1;
    }

    // 1. Capture to disk.
    std::size_t written;
    {
        auto writer = TraceFileWriter::create(path);
        if (!writer.ok()) {
            std::cerr << writer.status().toString() << "\n";
            return 1;
        }
        auto n = writer.value()->writeAll(*wl);
        Status s = n.ok() ? writer.value()->close() : n.status();
        if (!s.isOk()) {
            std::cerr << s.toString() << "\n";
            return 1;
        }
        written = n.value();
    }
    std::cout << "wrote " << written << " records to " << path
              << "\n";

    // 2. Classify the generator directly...
    ClassifyConfig cfg;
    ClassifyResult live = classifyRun(*wl, cfg);

    // 3. ...and the file replay.
    auto reader = TraceFileReader::open(path);
    if (!reader.ok()) {
        std::cerr << reader.status().toString() << "\n";
        return 1;
    }
    ClassifyResult replay = classifyRun(*reader.value(), cfg);

    std::cout << "live:   misses=" << live.misses << " overall acc="
              << live.scorer.overallAccuracy() << "%\n"
              << "replay: misses=" << replay.misses
              << " overall acc="
              << replay.scorer.overallAccuracy() << "%\n";

    bool ok = live.misses == replay.misses &&
              live.scorer.totalMisses() ==
                  replay.scorer.totalMisses();
    std::cout << (ok ? "round trip OK\n" : "MISMATCH\n");
    std::remove(path.c_str());
    return ok ? 0 : 1;
}
