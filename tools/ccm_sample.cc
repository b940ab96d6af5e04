/**
 * @file
 * ccm-sample — the statistical sampling engine's CLI (src/sample):
 * SHARDS miss-ratio curves, representative-interval reconstruction,
 * and MRC-derived geometry recommendations, with optional exact
 * references for error reporting.
 *
 *   ccm-sample --workload gcc --rate 0.01
 *   ccm-sample --workload tomcatv --rate 0.01 --intervals 4 --exact
 *   ccm-sample --trace foo.bin --variant fixed-size --max-lines 4096
 *   ccm-sample --workload stream --stats-json - | ccm-report -
 *
 * The sampled analysis is deterministic for a given (trace, options);
 * only the wall_seconds_* fields vary between runs.  Exit status 0 on
 * success, 1 on usage/trace errors.
 */

#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/log.hh"
#include "obs/sink.hh"
#include "sample/engine.hh"
#include "trace/mmap_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

struct Options
{
    std::string workload = "tomcatv";
    std::string tracePath;
    std::size_t refs = 1'000'000;
    std::uint64_t seed = 42;

    double rate = 0.01;
    std::string variant = "fixed-rate";
    std::size_t maxLines = 8192;
    bool noRateCorrection = false;

    std::size_t intervals = 0;
    std::size_t windowRefs = 0;
    std::size_t warmupRefs = 16 * 1024;
    bool exact = false;

    // replay / exact-classify geometry
    std::size_t l1Kb = 16;
    unsigned l1Assoc = 1;
    unsigned mctDepth = 1;
    unsigned mctTagBits = 0;

    obs::StatsTarget stats;
};

void
usage()
{
    std::cout <<
        "usage: ccm-sample [options]\n"
        "  --workload NAME        synthetic workload (default "
        "tomcatv)\n"
        "  --trace PATH           binary trace file instead\n"
        "  --refs N               memory references (default 1M)\n"
        "  --seed N               workload + sampling seed\n"
        "\n"
        "sampling:\n"
        "  --rate R               SHARDS rate in (0,1] (default "
        "0.01)\n"
        "  --variant V            fixed-rate | fixed-size\n"
        "  --max-lines N          fixed-size tracked-line budget\n"
        "                         (default 8192)\n"
        "  --no-rate-correction   report raw sampled ratios\n"
        "\n"
        "representative intervals:\n"
        "  --intervals K          replay K representative windows and\n"
        "                         reconstruct whole-trace stats with\n"
        "                         error bars (0 = off)\n"
        "  --window N             window length in refs (default:\n"
        "                         trace/32)\n"
        "  --warmup N             uncounted warmup refs per window\n"
        "                         (default 16384)\n"
        "  --exact                also run the exact references and\n"
        "                         report prediction errors\n"
        "\n"
        "geometry (replay + exact classify):\n"
        "  --l1-kb N --l1-assoc N (default 16, 1)\n"
        "  --mct-depth N --mct-bits N\n"
        "\n"
        "output:\n"
        "  --stats-json FILE      kind:\"sample\" document (\"-\" = "
        "stdout)\n"
        "  --stats-out FILE       like --stats-json + --stats-format\n"
        "  --stats-format F       text | json | csv\n"
        "  --log-level L          trace|debug|info|warn|error|off\n";
}

int
run(const Options &o)
{
    sample::SampleRunConfig scfg;
    scfg.classify.cacheBytes = o.l1Kb * 1024;
    scfg.classify.assoc = o.l1Assoc;
    scfg.classify.mctDepth = o.mctDepth;
    scfg.classify.mctTagBits = o.mctTagBits;
    Status geom_ok = scfg.classify.validate();
    if (!geom_ok.isOk()) {
        CCM_LOG_ERROR(geom_ok.toString());
        return 1;
    }

    Expected<std::unique_ptr<TraceSource>> trace =
        o.tracePath.empty()
            ? makeWorkloadChecked(o.workload, o.refs, o.seed)
            : openTraceMappedOrFile(o.tracePath, TraceReadOptions{});
    if (!trace.ok()) {
        CCM_LOG_ERROR(trace.status().toString());
        return 1;
    }

    scfg.mrc.rate = o.rate;
    scfg.mrc.seed = o.seed;
    scfg.mrc.variant = o.variant == "fixed-size"
                           ? sample::ShardsVariant::FixedSize
                           : sample::ShardsVariant::FixedRate;
    scfg.mrc.maxSampledLines = o.maxLines;
    scfg.mrc.rateCorrection = !o.noRateCorrection;
    scfg.mrc.windowRefs = o.windowRefs;
    scfg.intervals = o.intervals;
    scfg.interval.warmupRefs = o.warmupRefs;
    scfg.interval.seed = o.seed;
    scfg.compareExact = o.exact;

    auto rep = sample::runSampleAnalysis(*trace.value(), scfg);
    if (!rep.ok()) {
        CCM_LOG_ERROR(rep.status().toString());
        return 1;
    }
    const sample::SampleReport &r = rep.value();

    std::cout << "== ccm-sample: " << trace.value()->name() << " ==\n"
              << "rate              " << r.mrc.finalRate * 100.0
              << "% " << sample::toString(r.mrc.variant);
    if (r.mrc.thresholdHalvings > 0)
        std::cout << " (" << r.mrc.thresholdHalvings << " halvings)";
    std::cout << "\n"
              << "references        " << r.mrc.sampledRefs
              << " sampled of " << r.mrc.totalRefs << " ("
              << r.mrc.linesSampled << " lines)\n\n"
              << "capacity      miss ratio"
              << (r.hasExact ? "      exact      |err|" : "")
              << "\n";
    for (std::size_t i = 0; i < r.mrc.points.size(); ++i) {
        const sample::MrcPoint &p = r.mrc.points[i];
        std::cout << p.capacityBytes / 1024 << "KB\t      "
                  << p.missRatio;
        if (r.hasExact && i < r.exactMrc.points.size()) {
            const double e = r.exactMrc.points[i].missRatio;
            std::cout << "\t" << e << "\t"
                      << (p.missRatio > e ? p.missRatio - e
                                          : e - p.missRatio);
        }
        std::cout << "\n";
    }
    std::cout << "\nrecommendation    "
              << r.recommendation.rationale << "\n";

    if (r.hasIntervals) {
        std::cout << "\nintervals         " << r.intervals.clusters
                  << " of " << r.intervals.windows << " windows ("
                  << r.intervals.windowRefs << " refs each), "
                  << r.intervals.replayedRefs << " of "
                  << r.intervals.totalRefs << " refs replayed\n";
        for (const sample::StatEstimate &est : r.intervals.stats) {
            if (est.predicted == 0.0)
                continue;
            std::cout << est.name << "  " << est.predicted << " +/- "
                      << est.errorBar << "\n";
        }
    }
    if (r.hasExact) {
        std::cout << "\nMRC error         mae " << r.mrcMae
                  << ", max " << r.mrcMaxError << "\n";
        if (r.hasIntervals)
            std::cout << "stat error        max "
                      << r.maxStatRelError * 100.0 << "% relative\n";
        std::cout << "wall              sampled "
                  << r.wallSecondsSampled << "s, exact "
                  << r.wallSecondsExact << "s\n";
    }

    if (!o.stats.path.empty()) {
        Status s =
            o.stats.write(obs::sampleDocument(trace.value()->name(), r));
        if (!s.isOk()) {
            CCM_LOG_ERROR(s.toString());
            return 1;
        }
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
        } else if (a == "--workload") {
            s = args.value(o.workload);
        } else if (a == "--trace") {
            s = args.value(o.tracePath);
        } else if (a == "--refs") {
            s = args.number(o.refs);
        } else if (a == "--seed") {
            s = args.number(o.seed);
        } else if (a == "--rate") {
            s = args.rate(o.rate);
        } else if (a == "--variant") {
            s = args.value(o.variant);
            if (s.isOk() && o.variant != "fixed-rate" &&
                o.variant != "fixed-size")
                s = Status::badConfig("unknown variant '", o.variant,
                                      "' (fixed-rate | fixed-size)");
        } else if (a == "--max-lines") {
            s = args.number(o.maxLines);
        } else if (a == "--no-rate-correction") {
            o.noRateCorrection = true;
        } else if (a == "--intervals") {
            s = args.number(o.intervals);
        } else if (a == "--window") {
            s = args.number(o.windowRefs);
        } else if (a == "--warmup") {
            s = args.number(o.warmupRefs);
        } else if (a == "--exact") {
            o.exact = true;
        } else if (a == "--l1-kb") {
            s = args.number(o.l1Kb, kMaxKb);
        } else if (a == "--l1-assoc") {
            s = args.number(o.l1Assoc);
        } else if (a == "--mct-depth") {
            s = args.number(o.mctDepth);
        } else if (a == "--mct-bits") {
            s = args.number(o.mctTagBits);
        } else if (obs::StatsTarget::isFlag(a)) {
            s = o.stats.parseFlag(args);
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
    return run(o);
}
