/**
 * @file
 * ccm-serve — the streaming trace-serving daemon (docs/SERVING.md).
 *
 *   ccm-serve --socket /run/ccm.sock --control /run/ccm-ctl.sock \
 *             --config serve.conf --idle-ttl-ms 30000
 *
 * Producers connect to the ingest socket and stream CCMF frames
 * (tools/ccm-stream, or the ServeClient library); each stream runs on
 * its own bounded simulation pipeline.  The control socket answers
 * one-line commands: "stats" (live kind:"serve" ccm-stats JSON),
 * "metrics" (Prometheus text), "metrics json" (kind:"metrics" JSON),
 * "drain", "reload", "ping".
 *
 * Signals: SIGTERM/SIGINT start a graceful drain (grace period for
 * producers to finish, then cut) and the process exits 0; SIGHUP
 * re-reads --config and swaps the runtime configuration for new
 * streams.  A failed reload keeps the old configuration and the
 * daemon keeps serving.
 *
 * Exit status: 0 after a drain (signal or control command), 1 on
 * usage/startup errors.
 */

#include <csignal>
#include <iostream>
#include <string>

#include <poll.h>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/shutdown.hh"
#include "obs/sink.hh"
#include "obs/span.hh"
#include "sample/mrc.hh"
#include "serve/daemon.hh"

namespace
{

using namespace ccm;

void
usage()
{
    std::cout <<
        "usage: ccm-serve --socket PATH [options]\n"
        "  --socket PATH          ingest unix-domain socket (required)\n"
        "  --control PATH         control socket (stats/drain/reload)\n"
        "  --config FILE          runtime config file; SIGHUP re-reads\n"
        "                         it (keys: see docs/SERVING.md)\n"
        "  --arch A               architecture for new streams\n"
        "                         (overrides the config file)\n"
        "  --max-streams N        admission cap (default 64)\n"
        "  --idle-ttl-ms N        reap streams idle > N ms (0 = never)\n"
        "  --drain-grace-ms N     grace for connected producers at a\n"
        "                         drain (default 2000); new connects\n"
        "                         are refused at once\n"
        "  --queue-records N      per-stream queue bound (default 8192)\n"
        "  --policy P             block | shed (default block)\n"
        "  --window-every N       rolling-window sample length in refs\n"
        "  --window-samples N     rolling-window samples kept\n"
        "  --defect-budget N      frame defects tolerated per stream\n"
        "  --stats-out FILE       write the final stats document on\n"
        "                         exit (\"-\" = stdout)\n"
        "  --trace-spans FILE     write a Chrome trace-event JSON of\n"
        "                         stream/control spans on exit\n"
        "  --log-level L          trace|debug|info|warn|error|off\n"
        "                         (default $CCM_LOG_LEVEL or info)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions opts;
    std::string statsOut;
    std::string traceSpans;
    std::string archOverride;

    ArgCursor args(argc, argv);
    while (args.next()) {
        const std::string &a = args.flag();
        Status s;
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--socket") {
            s = args.value(opts.socketPath);
        } else if (a == "--control") {
            s = args.value(opts.controlPath);
        } else if (a == "--config") {
            s = args.value(opts.configPath);
        } else if (a == "--arch") {
            s = args.value(archOverride);
        } else if (a == "--max-streams") {
            s = args.number(opts.maxStreams);
        } else if (a == "--idle-ttl-ms") {
            s = args.number(opts.idleTtlMs);
        } else if (a == "--drain-grace-ms") {
            s = args.number(opts.drainGraceMs);
        } else if (a == "--queue-records") {
            s = args.number(opts.runtime.limits.queueRecords);
        } else if (a == "--policy") {
            std::string name;
            s = args.value(name);
            if (s.isOk()) {
                auto p = serve::parseOverflowPolicy(name);
                if (p.ok())
                    opts.runtime.limits.policy = p.value();
                else
                    s = p.status();
            }
        } else if (a == "--window-every") {
            s = args.number(opts.runtime.limits.windowEvery);
        } else if (a == "--window-samples") {
            s = args.number(opts.runtime.limits.windowSamples);
        } else if (a == "--defect-budget") {
            s = args.number(opts.runtime.limits.defectBudget);
        } else if (a == "--stats-out") {
            s = args.value(statsOut);
        } else if (a == "--trace-spans") {
            s = args.value(traceSpans);
        } else if (a == "--log-level") {
            s = args.logLevel();
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

    if (opts.socketPath.empty()) {
        CCM_LOG_ERROR("--socket is required");
        usage();
        return 1;
    }

    if (!traceSpans.empty()) {
        Status ts = obs::SpanTracer::global().enableToFile(traceSpans);
        if (!ts.isOk()) {
            CCM_LOG_ERROR(ts.toString());
            return 1;
        }
    }

    if (!opts.configPath.empty()) {
        auto cfg = serve::loadServeConfig(opts.configPath);
        if (!cfg.ok()) {
            CCM_LOG_ERROR(cfg.status().toString());
            return 1;
        }
        opts.runtime = cfg.take();
    }
    if (!archOverride.empty()) {
        auto sys = buildArchConfig(archOverride);
        if (!sys.ok()) {
            CCM_LOG_ERROR(sys.status().toString());
            return 1;
        }
        opts.runtime.arch = archOverride;
        opts.runtime.system = sys.take();
    }

    std::signal(SIGPIPE, SIG_IGN);

    // Register the sampling instruments at zero so scrapers (and
    // ccm-top) see the full metric surface before any MRC pass runs.
    sample::touchSampleMetrics();

    ShutdownLatch latch;
    Status sig = latch.installSignalHandlers(SIGTERM, SIGINT, SIGHUP);
    if (!sig.isOk()) {
        CCM_LOG_ERROR(sig.toString());
        return 1;
    }

    serve::ServeDaemon daemon(opts);
    Status started = daemon.start();
    if (!started.isOk()) {
        CCM_LOG_ERROR(started.toString());
        return 1;
    }
    std::cout << "ccm-serve: listening on " << opts.socketPath;
    if (!opts.controlPath.empty())
        std::cout << " (control " << opts.controlPath << ")";
    std::cout << ", arch " << opts.runtime.arch << std::endl;

    while (!latch.stopRequested() && !daemon.draining()) {
        if (latch.takeReloadRequest()) {
            latch.drainWake();
            Status s = daemon.reload();
            if (!s.isOk())
                CCM_LOG_WARN(s.toString());
            continue;
        }
        // Signals and a control-socket drain both wake this at once.
        pollfd pf[2] = {{latch.wakeFd(), POLLIN, 0},
                        {daemon.drainWakeFd(), POLLIN, 0}};
        ::poll(pf, 2, -1);
    }

    CCM_LOG_INFO("draining...");
    daemon.drainAndStop();

    if (!statsOut.empty()) {
        Status ws = obs::writeDocumentToFile(
            statsOut, daemon.statsDocument(), obs::StatsFormat::Json);
        if (!ws.isOk())
            CCM_LOG_ERROR(ws.toString());
    }
    Status fs = obs::SpanTracer::global().flush();
    if (!fs.isOk())
        CCM_LOG_ERROR(fs.toString());
    CCM_LOG_INFO("drained, exiting");
    return 0;
}
