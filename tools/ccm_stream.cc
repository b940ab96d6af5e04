/**
 * @file
 * ccm-stream — producer and control client for ccm-serve
 * (docs/SERVING.md).
 *
 * Producer mode streams a workload (or trace file) to the daemon:
 *
 *   ccm-stream --socket /run/ccm.sock --name web-1 \
 *              --workload tomcatv --refs 200000
 *
 * Fault-injection flags make it double as the robustness test rig:
 * --fault-* decorate the trace with FaultInjectingSource's
 * record-level defects, --corrupt-after injects raw garbage bytes
 * into the frame stream (wire corruption), and --disconnect-after
 * drops the connection without an end frame (producer crash).
 * --frames-out captures the exact byte stream for `tracecheck frames`.
 *
 * Control mode sends one command and prints the reply:
 *
 *   ccm-stream --control /run/ccm-ctl.sock --cmd stats
 *
 * Exit status: 0 success (including an intentional
 * --disconnect-after), 1 usage errors, 2 connect/send failures or an
 * "error:" control reply.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "trace/fault_trace.hh"
#include "trace/file_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

void
usage()
{
    std::cout <<
        "usage: ccm-stream --socket PATH --name NAME [options]\n"
        "       ccm-stream --control PATH --cmd COMMAND\n"
        "producer options:\n"
        "  --workload W           synthetic workload (default tomcatv)\n"
        "  --refs N               workload length (default 100000)\n"
        "  --seed N               workload seed (default 42)\n"
        "  --trace FILE           stream a binary trace file instead\n"
        "  --chunk N              records per frame batch (default 256)\n"
        "  --fault-bitflip R      FaultInjectingSource bit-flip rate\n"
        "  --fault-drop R         record drop rate\n"
        "  --fault-dup R          record duplication rate\n"
        "  --fault-truncate N     stop the source after N records\n"
        "  --fault-seed N         fault plan seed (default 1)\n"
        "  --corrupt-after N      after N records, inject raw garbage\n"
        "  --corrupt-bytes N      garbage byte count (default 64)\n"
        "  --disconnect-after N   close without an end frame after N\n"
        "                         records (simulated producer crash)\n"
        "  --frames-out FILE      capture the framed byte stream\n"
        "connection options:\n"
        "  --retries N            connect attempts (default 5)\n"
        "  --backoff-ms N         initial backoff, doubles (default 10)\n"
        "  --timeout-ms N         per-send/reply timeout (default 5000)\n";
}

struct Options
{
    std::string socketPath;
    std::string controlPath;
    std::string command;
    std::string name;
    std::string workload = "tomcatv";
    std::string tracePath;
    std::string framesOut;
    std::size_t refs = 100'000;
    std::uint64_t seed = 42;
    std::size_t chunk = serve::kMaxRecordsPerFrame;
    FaultPlan faults;
    std::size_t corruptAfter = 0; ///< 0 = no wire corruption
    std::size_t corruptBytes = 64;
    std::size_t disconnectAfter = 0; ///< 0 = finish cleanly
    serve::ClientOptions client;
};

int
runControl(const Options &o)
{
    auto reply = serve::controlRequest(o.controlPath, o.command,
                                       o.client);
    if (!reply.ok()) {
        CCM_LOG_ERROR(reply.status().toString());
        return 2;
    }
    std::cout << reply.value();
    if (!reply.value().empty() && reply.value().back() != '\n')
        std::cout << "\n";
    return reply.value().rfind("error:", 0) == 0 ? 2 : 0;
}

int
runProducer(const Options &o)
{
    Status plan = o.faults.validate();
    if (!plan.isOk()) {
        CCM_LOG_ERROR(plan.toString());
        return 1;
    }
    std::unique_ptr<TraceSource> base;
    if (!o.tracePath.empty()) {
        auto rd = TraceFileReader::open(o.tracePath);
        if (!rd.ok()) {
            CCM_LOG_ERROR(rd.status().toString());
            return 2;
        }
        base = std::unique_ptr<TraceSource>(rd.take().release());
    } else {
        auto wl = makeWorkloadChecked(o.workload, o.refs, o.seed);
        if (!wl.ok()) {
            CCM_LOG_ERROR(wl.status().toString());
            return 1;
        }
        base = wl.take();
    }

    TraceSource *src = base.get();
    std::unique_ptr<FaultInjectingSource> faulty;
    if (o.faults.enabled()) {
        faulty = std::make_unique<FaultInjectingSource>(*base, o.faults);
        src = faulty.get();
    }

    auto connected =
        serve::ServeClient::connect(o.socketPath, o.name, o.client);
    if (!connected.ok()) {
        CCM_LOG_ERROR(connected.status().toString());
        return 2;
    }
    serve::ServeClient client = connected.take();

    // Capture mirrors every byte that goes on the wire, hello first.
    std::vector<std::uint8_t> capture;
    const bool capturing = !o.framesOut.empty();
    if (capturing)
        serve::appendHelloFrame(capture, o.name);

    const std::size_t chunk =
        std::min(o.chunk == 0 ? std::size_t{1} : o.chunk,
                 serve::kMaxRecordsPerFrame);
    std::vector<MemRecord> batch(chunk);
    std::size_t sent = 0;
    bool corrupted = false;
    bool disconnected = false;

    for (;;) {
        if (o.corruptAfter > 0 && !corrupted &&
            sent >= o.corruptAfter) {
            corrupted = true;
            // Garbage with no believable frame boundary in it: the
            // daemon must resync past every byte.
            std::vector<std::uint8_t> junk(o.corruptBytes, 0xa5);
            Status s = client.sendRawBytes(junk.data(), junk.size());
            if (!s.isOk()) {
                CCM_LOG_ERROR(s.toString());
                return 2;
            }
            if (capturing)
                capture.insert(capture.end(), junk.begin(),
                               junk.end());
        }

        std::size_t want = chunk;
        if (o.disconnectAfter > 0)
            want = std::min(want, o.disconnectAfter - sent);
        if (want == 0) {
            client.closeAbrupt();
            disconnected = true;
            break;
        }
        const std::size_t n = src->nextBatch(batch.data(), want);
        if (n == 0)
            break;

        std::vector<std::uint8_t> bytes;
        serve::appendRecordsFrames(bytes, batch.data(), n);
        Status s = client.sendRawBytes(bytes.data(), bytes.size());
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 2;
        }
        if (capturing)
            capture.insert(capture.end(), bytes.begin(), bytes.end());
        sent += n;
    }

    if (!disconnected) {
        Status s = client.sendEnd();
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 2;
        }
        if (capturing)
            serve::appendEndFrame(capture);
    }

    if (capturing) {
        std::ofstream out(o.framesOut, std::ios::binary);
        if (!out ||
            !out.write(reinterpret_cast<const char *>(capture.data()),
                       static_cast<std::streamsize>(capture.size()))) {
            CCM_LOG_ERROR("cannot write ", o.framesOut);
            return 2;
        }
    }

    std::cout << "ccm-stream: " << o.name << ": " << sent
              << " records sent"
              << (disconnected ? " (abrupt disconnect)" : "")
              << (corrupted ? " (wire corruption injected)" : "")
              << "\n";
    if (faulty) {
        const FaultStats &fs = faulty->stats();
        std::cout << "ccm-stream: faults injected: " << fs.bitFlips
                  << " bit flips, " << fs.drops << " drops, "
                  << fs.duplicates << " duplicates"
                  << (fs.truncated ? ", truncated" : "") << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    ArgCursor args(argc, argv);
    while (args.next()) {
        const std::string &a = args.flag();
        Status s;
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--socket") {
            s = args.value(o.socketPath);
        } else if (a == "--control") {
            s = args.value(o.controlPath);
        } else if (a == "--cmd") {
            s = args.value(o.command);
        } else if (a == "--name") {
            s = args.value(o.name);
        } else if (a == "--workload") {
            s = args.value(o.workload);
        } else if (a == "--trace") {
            s = args.value(o.tracePath);
        } else if (a == "--frames-out") {
            s = args.value(o.framesOut);
        } else if (a == "--refs") {
            s = args.number(o.refs);
        } else if (a == "--seed") {
            s = args.number(o.seed);
        } else if (a == "--chunk") {
            s = args.number(o.chunk);
        } else if (a == "--fault-bitflip") {
            s = args.rate(o.faults.bitFlipRate);
        } else if (a == "--fault-drop") {
            s = args.rate(o.faults.dropRate);
        } else if (a == "--fault-dup") {
            s = args.rate(o.faults.duplicateRate);
        } else if (a == "--fault-truncate") {
            s = args.number(o.faults.truncateAfter);
        } else if (a == "--fault-seed") {
            s = args.number(o.faults.seed);
        } else if (a == "--corrupt-after") {
            s = args.number(o.corruptAfter);
        } else if (a == "--corrupt-bytes") {
            s = args.number(o.corruptBytes);
        } else if (a == "--disconnect-after") {
            s = args.number(o.disconnectAfter);
        } else if (a == "--retries") {
            s = args.number(o.client.connectRetries);
        } else if (a == "--backoff-ms") {
            s = args.number(o.client.backoffInitialMs);
        } else if (a == "--timeout-ms") {
            s = args.number(o.client.ioTimeoutMs);
        } else {
            CCM_LOG_ERROR("unknown option '", a, "'");
            usage();
            return 1;
        }
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 1;
        }
    }

    if (!o.controlPath.empty()) {
        if (o.command.empty()) {
            CCM_LOG_ERROR("--control needs --cmd COMMAND");
            return 1;
        }
        return runControl(o);
    }
    if (o.socketPath.empty() || o.name.empty()) {
        CCM_LOG_ERROR("--socket and --name are required");
        usage();
        return 1;
    }
    return runProducer(o);
}
