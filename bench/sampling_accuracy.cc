/**
 * @file
 * Accuracy/speedup scorecard for the statistical sampling engine
 * (src/sample): for every workload in the suite, run the full sampled
 * analysis (1% SHARDS MRC + representative-interval replay) and the
 * brute-force work it replaces, then score the predictions.
 *
 * Two speedup columns, against the two exact procedures the sampled
 * pass substitutes for:
 *
 *  - `x_classify`: one exact classify per capacity-grid point plus
 *    the base-geometry classify (the sweep that locates the capacity
 *    knee and the counters the interval replay reconstructs);
 *  - `x_tuned`: the same, plus the geometry-tuning sweep `--auto-size`
 *    replaces — one timing run per candidate the recommender chooses
 *    from (4 buffer depths x every non-empty V/P/X assist partition,
 *    plus the no-assist baseline; 29 points).  A smarter search could
 *    prune the grid, but any exact tuner still pays multiple timing
 *    runs per workload where the sampler pays one cheap pass.
 *
 * The error columns score against exact references computed
 * separately — a rate-1.0 MRC pass (same fully-associative LRU model,
 * so MRC error is sampling error and nothing else) and the base
 * classify's counters.  Those references are timed outside both
 * speedup ratios: they are the measuring stick, not the workload
 * being replaced.
 *
 * Gates (CI runs this via ci.sh, with --gate-only to skip the
 * wall-clock sweeps):
 *   - MRC mean-absolute-error     <= 0.02  per workload
 *   - stat reconstruction error   <= 5%    per workload, per counter
 * The binary exits nonzero when either gate fails; the speedup
 * columns are informational (wall clock is machine-dependent).
 *
 * Emits BENCH_sampling.json; the committed reference lives in
 * bench/baselines/BENCH_sampling.json.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "sample/engine.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"

namespace
{

using namespace ccm;

/** The accuracy campaign's locked configuration (docs/PERFORMANCE.md
 * "Sampling ladder"): 8M references gives every synthetic workload
 * enough windows that the 50000-ref signatures separate phases, and
 * K=12 representatives keep the replay near 10% of the trace. */
constexpr std::size_t benchRefs = 8'000'000;
constexpr double benchRate = 0.01;
constexpr Count benchWindow = 50'000;
constexpr std::size_t benchIntervals = 12;

constexpr double mrcMaeGate = 0.02;
constexpr double statRelGate = 0.05;

struct Row
{
    std::string workload;
    double sampledSeconds = 0.0;
    double classifySweepSeconds = 0.0;
    double tuneSweepSeconds = 0.0;
    double finalRate = 0.0;
    bool boosted = false;
    double mrcMae = 0.0;
    double mrcMax = 0.0;
    double statRel = 0.0;
    bool pass = false;
    std::string error;
};

double
seconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Exact classify at every grid capacity + the base geometry. */
double
timeClassifySweep(const VectorTrace &trace,
                  const sample::SampleRunConfig &cfg)
{
    const std::vector<std::size_t> caps = sample::defaultCapacities();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t cap : caps) {
        ShardedClassifyConfig c = cfg.classify;
        c.cacheBytes = cap;
        ShardedClassifyResult r = runShardedClassify(
            trace.records().data(), trace.records().size(), c);
        if (r.references == 0)
            std::cerr << "sweep produced no references?\n";
    }
    ShardedClassifyResult base = runShardedClassify(
        trace.records().data(), trace.records().size(), cfg.classify);
    if (base.references == 0)
        std::cerr << "base classify produced no references?\n";
    return seconds(t0);
}

/** The exact geometry tuner: one timing run per candidate the
 * recommender picks from (applyRecommendation builds each config, so
 * the sweep covers exactly the recommendation space). */
double
timeTuneSweep(VectorTrace &trace)
{
    const SystemConfig base = baselineConfig();
    const auto t0 = std::chrono::steady_clock::now();
    Cycle sink = 0;
    sink += runTiming(trace, base).sim.cycles;
    for (unsigned depth : {4u, 8u, 16u, 32u}) {
        for (unsigned mask = 1; mask < 8; ++mask) {
            sample::GeometryRecommendation rec;
            rec.bufEntries = depth;
            rec.victimConflicts = (mask & 1) != 0;
            rec.prefetchCapacity = (mask & 2) != 0;
            rec.excludeCapacity = (mask & 4) != 0;
            const SystemConfig cfg =
                sample::applyRecommendation(base, rec);
            sink += runTiming(trace, cfg).sim.cycles;
        }
    }
    if (sink == 0)
        std::cerr << "tuner sweep simulated no cycles?\n";
    return seconds(t0);
}

Row
runOne(const std::string &name, bool gate_only)
{
    Row row;
    row.workload = name;

    VectorTrace trace = bench::captureWorkload(name, benchRefs);

    sample::SampleRunConfig cfg;
    cfg.mrc.rate = benchRate;
    cfg.mrc.seed = bench::seed;
    cfg.mrc.windowRefs = benchWindow;
    cfg.intervals = benchIntervals;
    cfg.compareExact = true; // exact MRC + base classify references

    Expected<sample::SampleReport> rep = sample::runSampleAnalysis(
        trace.records().data(), trace.records().size(), cfg);
    if (!rep.ok()) {
        row.error = rep.status().toString();
        return row;
    }
    const sample::SampleReport &r = rep.value();

    row.sampledSeconds = r.wallSecondsSampled;
    row.finalRate = r.mrc.finalRate;
    row.boosted = r.mrc.minLinesBoost;
    row.mrcMae = r.mrcMae;
    row.mrcMax = r.mrcMaxError;
    row.statRel = r.maxStatRelError;
    row.pass = row.mrcMae <= mrcMaeGate && row.statRel <= statRelGate;

    if (!gate_only) {
        row.classifySweepSeconds = timeClassifySweep(trace, cfg);
        row.tuneSweepSeconds = timeTuneSweep(trace);
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t jobs = 1;
    bool gate_only = false;
    ccm::ArgCursor args(argc, argv);
    while (args.next()) {
        ccm::Status s;
        if (args.flag() == "--jobs") {
            s = args.number(jobs);
        } else if (args.flag() == "--gate-only") {
            gate_only = true;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs N] [--gate-only]\n";
            return 1;
        }
        if (!s.isOk()) {
            std::cerr << s.toString() << "\n";
            return 1;
        }
    }

    const std::vector<std::string> names = ccm::workloadNames();

    std::cout << "Sampling accuracy/speedup (refs " << benchRefs
              << ", rate " << benchRate << ", window " << benchWindow
              << ", K " << benchIntervals << ", seed "
              << ccm::bench::seed << ")\n"
              << "x_classify = exact capacity sweep / sampled pass; "
              << "x_tuned adds the 29-point geometry-timing sweep\n\n";

    std::vector<Row> rows(names.size());
    ccm::forEachIndex(names.size(), jobs, [&](std::size_t i) {
        rows[i] = runOne(names[i], gate_only);
    });

    ccm::TextTable table({"workload", "x_classify", "x_tuned",
                          "sampled_s", "classify_s", "tune_s", "rate",
                          "mrc_mae", "mrc_max", "stat_err%", "gate"});
    bool all_pass = true;
    double log_classify = 0.0, log_tuned = 0.0;
    double worst_mae = 0.0, worst_stat = 0.0;
    std::size_t timed = 0;
    for (const Row &row : rows) {
        const std::size_t r = table.addRow(row.workload);
        if (!row.error.empty()) {
            table.set(r, 10, "ERROR " + row.error);
            all_pass = false;
            continue;
        }
        const double x_classify =
            row.sampledSeconds > 0.0
                ? row.classifySweepSeconds / row.sampledSeconds
                : 0.0;
        const double x_tuned =
            row.sampledSeconds > 0.0
                ? (row.classifySweepSeconds + row.tuneSweepSeconds) /
                      row.sampledSeconds
                : 0.0;
        table.setNum(r, 1, x_classify, 1);
        table.setNum(r, 2, x_tuned, 1);
        table.setNum(r, 3, row.sampledSeconds, 3);
        table.setNum(r, 4, row.classifySweepSeconds, 3);
        table.setNum(r, 5, row.tuneSweepSeconds, 3);
        char rate[32];
        std::snprintf(rate, sizeof rate, "%.3f%s", row.finalRate,
                      row.boosted ? "*" : "");
        table.set(r, 6, rate);
        table.setNum(r, 7, row.mrcMae, 4);
        table.setNum(r, 8, row.mrcMax, 4);
        table.setNum(r, 9, row.statRel * 100.0, 2);
        table.set(r, 10, row.pass ? "pass" : "FAIL");
        all_pass = all_pass && row.pass;
        if (x_classify > 0.0) {
            log_classify += std::log(x_classify);
            log_tuned += std::log(x_tuned);
            ++timed;
        }
        worst_mae = std::max(worst_mae, row.mrcMae);
        worst_stat = std::max(worst_stat, row.statRel);
    }
    {
        const std::size_t r = table.addRow("geomean");
        if (timed > 0) {
            table.setNum(r, 1,
                         std::exp(log_classify / double(timed)), 1);
            table.setNum(r, 2, std::exp(log_tuned / double(timed)),
                         1);
        }
        table.setNum(r, 7, worst_mae, 4);
        table.setNum(r, 9, worst_stat * 100.0, 2);
        table.set(r, 10, all_pass ? "pass" : "FAIL");
    }

    table.print(std::cout);
    std::cout << "\n* = min-sampled-lines guard boosted the rate "
              << "(small-footprint workload)\n"
              << "gates: mrc_mae <= " << mrcMaeGate
              << ", stat_err <= " << statRelGate * 100.0 << "%\n";

    if (!gate_only)
        ccm::bench::emitBenchJson(
            "sampling", table,
            "sampled analysis (SHARDS MRC + interval replay) vs the "
            "exact capacity sweep and the 29-point geometry-timing "
            "sweep it replaces; errors vs exact references; gates "
            "mrc_mae<=0.02, stat_err<=5%");

    if (!all_pass) {
        std::cerr << "sampling accuracy gate FAILED\n";
        return 1;
    }
    return 0;
}
