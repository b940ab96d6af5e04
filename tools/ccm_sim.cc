/**
 * @file
 * ccm-sim — command-line driver for the simulator: run any workload
 * (synthetic or a binary trace file) against any architecture from
 * paper §5 and print a full statistics report.
 *
 *   ccm-sim --workload tomcatv --arch victim --filter-swaps
 *   ccm-sim --trace foo.bin --arch amb --victim --prefetch --exclude
 *   ccm-sim --workload gcc --arch exclude --exclude-algo mat
 *   ccm-sim --suite --arch victim
 *   ccm-sim --suite --trace-dir traces/ --arch baseline
 *   ccm-sim --list
 *
 * Suite mode sweeps the whole workload suite with per-run failure
 * isolation: a corrupt trace or failing run becomes an ERROR row and
 * the remaining runs still complete.
 *
 * Exit status 0 on success, 1 on usage errors, 2 when a suite sweep
 * finished with one or more errored rows.  A configuration validate()
 * rejects (a bad geometry or policy name) is a usage error in every
 * mode: one bad-config line and exit 1, before any suite row runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "hierarchy/memsys.hh"
#include "obs/events.hh"
#include "obs/interval.hh"
#include "obs/sink.hh"
#include "obs/span.hh"
#include "sample/mrc.hh"
#include "sample/recommend.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/sharded.hh"
#include "trace/file_trace.hh"
#include "trace/mmap_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

struct Options
{
    std::string workload = "tomcatv";
    std::string tracePath;
    std::string arch = "baseline";
    std::size_t refs = 1'000'000;
    std::uint64_t seed = 42;

    // suite sweep
    bool suite = false;
    std::string traceDir;
    std::size_t budget = 0;
    bool tolerateTruncation = false;
    std::size_t jobs = 1; ///< suite workers; 0 = hardware threads

    // classify fast path (no timing model)
    bool classify = false;
    unsigned shards = 1; ///< set-index shards per classify run
    unsigned mctDepth = 1;

    // cache geometry
    std::size_t l1Kb = 16;
    unsigned l1Assoc = 1;
    std::size_t l2Kb = 1024;
    unsigned bufEntries = 8;
    unsigned mctTagBits = 0;

    // victim policy
    bool filterSwaps = false;
    bool filterFills = false;
    std::string filter = "or";

    // prefetch policy
    bool prefFiltered = false;
    std::string prefKind = "nextline";

    // exclusion policy
    std::string excludeAlgo = "capacity";

    // AMB composition
    bool ambVictim = false;
    bool ambPrefetch = false;
    bool ambExclude = false;

    bool dumpRaw = false;

    bool autoSize = false; ///< MRC-sized suite geometry

    // structured stats output
    obs::StatsTarget stats;
    std::string traceSpans;
    std::size_t interval = 0;     ///< refs per sample; 0 = off
    std::size_t traceEvents = 0;  ///< max recorded events; 0 = off
};

/**
 * Observability state for one single run: an interval sampler and/or
 * an MCT event trace, attached to the machine right before it runs
 * through its one access hook.
 */
struct RunObservers
{
    std::unique_ptr<obs::IntervalSampler> sampler;
    std::unique_ptr<obs::ClassifyEventTrace> events;

    void
    attach(MemorySystem &mem)
    {
        obs::IntervalSampler *sp = sampler.get();
        obs::ClassifyEventTrace *ev = events.get();
        if (sp || ev) {
            mem.setAccessHook(
                [sp, ev](const AccessResult &, const MemStats &st) {
                    // Fires after each completed access; an event
                    // raised during reference k is stamped k.
                    if (ev)
                        ev->noteReference();
                    if (sp)
                        sp->onAccess(st);
                });
        }
        if (ev)
            mem.mct().setLookupHook(ev->hook());
    }
};

RunObservers
makeObservers(const Options &o)
{
    RunObservers obsv;
    if (o.interval > 0)
        obsv.sampler = std::make_unique<obs::IntervalSampler>(o.interval);
    if (o.traceEvents > 0) {
        obs::EventTraceOptions topt;
        topt.maxEvents = o.traceEvents;
        obsv.events = std::make_unique<obs::ClassifyEventTrace>(topt);
    }
    return obsv;
}

/** Write @p doc per the --stats-* options; returns the exit code. */
int
emitStatsDoc(const Options &o, obs::JsonValue doc)
{
    if (o.stats.path.empty())
        return 0;
    Status s = o.stats.write(doc);
    if (!s.isOk()) {
        CCM_LOG_ERROR(s.toString());
        return 1;
    }
    return 0;
}

void
usage()
{
    std::cout <<
        "usage: ccm-sim [options]\n"
        "  --list                     list synthetic workloads\n"
        "  --workload NAME            synthetic workload (default "
        "tomcatv)\n"
        "  --trace PATH               binary trace file instead (single\n"
        "                             runs; a suite takes --trace-dir)\n"
        "  --suite                    sweep the whole suite; failed\n"
        "                             runs become ERROR rows\n"
        "  --trace-dir DIR            suite traces from DIR/NAME.bin\n"
        "  --budget N                 tolerate N garbage runs per "
        "trace\n"
        "  --tolerate-truncation      truncated tail = end of trace\n"
        "  --classify                 cache+MCT classification only\n"
        "                             (no timing model); composes with\n"
        "                             --suite, --trace, --shards\n"
        "  --mct-depth N              evicted tags per set (default 1)\n"
        "\n"
        "parallelism (two independent knobs):\n"
        "  --jobs N                   timing suite only: run suite\n"
        "                             rows on N worker threads\n"
        "                             (default 1; 0 = one per hardware\n"
        "                             thread); output is byte-identical\n"
        "                             for every N\n"
        "  --shards N                 classify runs only: partition the\n"
        "                             set-index space across N workers\n"
        "                             within each run (default 1);\n"
        "                             output is byte-identical for\n"
        "                             every N.  A classify suite runs\n"
        "                             its rows sequentially, each row\n"
        "                             sharded N ways\n"
        "\n"
        "  --refs N                   memory references (default 1M)\n"
        "  --seed N                   workload seed (default 42)\n"
        "  --arch A                   baseline | victim | prefetch |\n"
        "                             exclude | pseudo | pseudo-lru |\n"
        "                             twoway | amb\n"
        "  --l1-kb N --l1-assoc N     L1 geometry (default 16, 1)\n"
        "  --l2-kb N                  L2 size (default 1024)\n"
        "  --buf-entries N            assist buffer entries\n"
        "  --mct-bits N               stored tag bits (0 = full)\n"
        "  --filter F                 in | out | and | or\n"
        "  --filter-swaps             victim: no swap on conflict\n"
        "  --filter-fills             victim: no fill on capacity\n"
        "  --pref-filtered            prefetch: capacity-only\n"
        "  --pref-kind K              nextline | rpt\n"
        "  --exclude-algo A           mat | tyson | capacity |\n"
        "                             conflict | cap-hist | conf-hist\n"
        "  --victim --prefetch --exclude   AMB components\n"
        "  --raw                      also dump raw counters\n"
        "  --auto-size                timing suite only: size each\n"
        "                             workload's assist geometry from\n"
        "                             a 1% SHARDS MRC pass before the\n"
        "                             sweep (EXPERIMENTS.md recipe);\n"
        "                             sampled analysis is ccm-sample\n"
        "\n"
        "  --stats-json FILE          write a ccm-stats JSON document\n"
        "                             (\"-\" = stdout)\n"
        "  --stats-out FILE           like --stats-json, but honours\n"
        "                             --stats-format\n"
        "  --stats-format F           text | json | csv (default json)\n"
        "  --interval N               sample delta-counters every N\n"
        "                             refs into the stats document\n"
        "  --trace-events N           record up to N MCT lookup events\n"
        "                             into the stats document\n"
        "  --trace-spans FILE         write a Chrome trace-event JSON\n"
        "                             of run/row spans on exit\n"
        "  --log-level L              trace|debug|info|warn|error|off\n"
        "                             (default $CCM_LOG_LEVEL or "
        "info)\n";
}

Expected<ConflictFilter>
parseFilter(const std::string &f)
{
    if (f == "in")
        return ConflictFilter::In;
    if (f == "out")
        return ConflictFilter::Out;
    if (f == "and")
        return ConflictFilter::And;
    if (f == "or")
        return ConflictFilter::Or;
    return Status::badConfig("unknown filter '", f, "'");
}

Expected<PrefetchKind>
parsePrefetchKind(const std::string &k)
{
    if (k == "nextline")
        return PrefetchKind::NextLine;
    if (k == "rpt")
        return PrefetchKind::Rpt;
    return Status::badConfig("unknown prefetch kind '", k, "'");
}

Expected<ExcludeAlgo>
parseExcludeAlgo(const std::string &a)
{
    if (a == "mat")
        return ExcludeAlgo::Mat;
    if (a == "tyson")
        return ExcludeAlgo::TysonPc;
    if (a == "capacity")
        return ExcludeAlgo::Capacity;
    if (a == "conflict")
        return ExcludeAlgo::Conflict;
    if (a == "cap-hist")
        return ExcludeAlgo::CapacityHistory;
    if (a == "conf-hist")
        return ExcludeAlgo::ConflictHistory;
    return Status::badConfig("unknown exclusion algorithm '", a, "'");
}

/** The validated timing machine: arch, then its policy and geometry flags. */
Expected<SystemConfig>
buildConfig(const Options &o)
{
    auto named = buildArchConfig(o.arch);
    if (!named.ok())
        return named.status();
    SystemConfig cfg = named.take();
    MemSysConfig &m = cfg.mem;
    if (o.arch == "victim") {
        auto filter = parseFilter(o.filter);
        if (!filter.ok())
            return filter.status();
        m.victim = {o.filterSwaps, o.filterFills, filter.value()};
    } else if (o.arch == "prefetch") {
        auto filter = parseFilter(o.filter);
        if (!filter.ok())
            return filter.status();
        auto kind = parsePrefetchKind(o.prefKind);
        if (!kind.ok())
            return kind.status();
        m.prefetch.kind = kind.value();
        m.prefetch.filtered = o.prefFiltered;
        m.prefetch.filter = filter.value();
    } else if (o.arch == "exclude") {
        auto algo = parseExcludeAlgo(o.excludeAlgo);
        if (!algo.ok())
            return algo.status();
        m.exclude.algo = algo.value();
    } else if (o.arch == "amb") {
        m.amb = {o.ambVictim, o.ambPrefetch, o.ambExclude};
    }

    m.l1Bytes = o.l1Kb * 1024;
    if (o.arch != "twoway" && o.arch != "pseudo" &&
        o.arch != "pseudo-lru")
        m.l1Assoc = o.l1Assoc;
    m.l2Bytes = o.l2Kb * 1024;
    m.bufEntries = o.bufEntries;
    m.mctTagBits = o.mctTagBits;
    Status s = validate(m);
    if (!s.isOk())
        return s;
    return cfg;
}

/**
 * The trace for workload @p name: DIR/NAME.bin under --trace-dir,
 * else the --trace file (never with --suite), else the generator.
 * Both suites and both single-run modes read through this.
 */
Expected<std::unique_ptr<TraceSource>>
openTrace(const Options &o, const std::string &name)
{
    TraceReadOptions ropts;
    ropts.corruptionBudget = o.budget;
    ropts.tolerateTruncatedTail = o.tolerateTruncation;
    if (!o.traceDir.empty())
        return openTraceMappedOrFile(o.traceDir + "/" + name + ".bin",
                                     ropts);
    if (!o.tracePath.empty())
        return openTraceMappedOrFile(o.tracePath, ropts);
    return makeWorkloadChecked(name, o.refs, o.seed);
}

/** The numeric columns of one ok timing row: cycles, ipc, miss%. */
void
setRowColumns(TextTable &table, std::size_t r, const RunOutput &out)
{
    table.set(r, 2, std::to_string(out.sim.cycles));
    table.setNum(r, 3, out.sim.ipc);
    table.setNum(r, 4, out.mem.missRatePct());
}

/** The numeric columns of one ok classify row: refs, miss%, conflict%. */
void
setRowColumns(TextTable &table, std::size_t r,
              const ShardedClassifyResult &out)
{
    table.set(r, 2, std::to_string(out.references));
    table.setNum(r, 3, out.mem.missRatePct());
    table.setNum(r, 4, pct(out.mem.conflictMisses, out.mem.l1Misses));
}

/**
 * Print a finished sweep under @p title (its table, one error line
 * per errored row, the ok/errored footer) and write its document.
 * @return 0, 2 when a row errored, 1 when the document can't be
 * written
 */
template <typename Out>
int
reportSuite(const Options &o, const std::string &title,
            std::vector<std::string> columns,
            const SuiteReportOf<Out> &report)
{
    TextTable table(std::move(columns));
    for (const auto &row : report.rows) {
        std::size_t r = table.addRow(row.workload);
        if (row.ok()) {
            table.set(r, 1, "ok");
            setRowColumns(table, r, row.out);
        } else {
            table.set(r, 1,
                      std::string("ERROR[") +
                          errorCodeName(row.status.code()) + "]");
            table.set(r, 2, "-");
            table.set(r, 3, "-");
            table.set(r, 4, "-");
        }
        table.setNum(r, 5, row.wallSeconds * 1000.0, 1);
    }
    std::cout << "== " << title << " ==\n";
    table.print(std::cout);

    for (const auto &row : report.rows) {
        if (!row.ok())
            CCM_LOG_ERROR(row.status.toString());
    }
    std::cout << report.rows.size() - report.failures() << "/"
              << report.rows.size() << " runs ok, "
              << report.failures() << " errored\n";

    if (!o.stats.path.empty()) {
        obs::JsonValue doc = obs::suiteDocument(report);
        doc.set("arch", obs::JsonValue::str(o.arch));
        int rc = emitStatsDoc(o, std::move(doc));
        if (rc != 0)
            return rc;
    }
    return report.allOk() ? 0 : 2;
}

int
runSuiteMode(const Options &o, const SystemConfig &cfg)
{
    obs::ScopedSpan span("suite:" + o.arch, "sim");

    auto factory = [&o](const std::string &name) {
        return openTrace(o, name);
    };
    ParallelSuiteOptions popts;
    popts.jobs = o.jobs;
    popts.interval = o.interval;

    // --auto-size: one cheap SHARDS pass per workload sizes its
    // assist geometry before the sweep (src/sample/recommend.hh).
    // A workload whose sizing pass fails just runs the base config;
    // the real run will surface any real trace problem as its row.
    std::map<std::string, SystemConfig> sized;
    if (o.autoSize) {
        obs::ScopedSpan sizing("auto-size", "sample");
        for (const auto &name : workloadNames()) {
            auto tr = factory(name);
            if (!tr.ok())
                continue;
            sample::MrcConfig mcfg;
            mcfg.rate = 0.01;
            mcfg.seed = o.seed;
            auto mrc = sample::buildMrc(*tr.value(), mcfg);
            if (!mrc.ok()) {
                CCM_LOG_WARN("auto-size ", name, ": ",
                             mrc.status().toString());
                continue;
            }
            sample::GeometryRecommendation rec =
                sample::recommendGeometry(mrc.value(),
                                          cfg.mem.l1Bytes);
            CCM_LOG_INFO("auto-size ", name, ": ", rec.rationale);
            sized[name] = sample::applyRecommendation(cfg, rec);
        }
        popts.configFor = [&sized](const std::string &name,
                                   const SystemConfig &base) {
            auto it = sized.find(name);
            return it != sized.end() ? it->second : base;
        };
    }

    return reportSuite(
        o,
        "ccm-sim suite: " + o.arch + " (jobs " +
            std::to_string(resolveJobCount(o.jobs)) + ")",
        {"workload", "status", "cycles", "ipc", "miss%", "wall ms"},
        runSuiteParallel(workloadNames(), factory, cfg, popts));
}

/** The classify config from @p o, or why it is invalid. */
Expected<ShardedClassifyConfig>
buildClassifyConfig(const Options &o)
{
    ShardedClassifyConfig cfg;
    cfg.cacheBytes = o.l1Kb * 1024;
    cfg.assoc = o.l1Assoc;
    cfg.mctTagBits = o.mctTagBits;
    cfg.mctDepth = o.mctDepth;
    cfg.shards = o.shards;
    cfg.interval = o.interval;
    Status s = cfg.validate();
    if (!s.isOk())
        return s;
    return cfg;
}

int
runClassifySuiteMode(const Options &o, const ShardedClassifyConfig &ccfg)
{
    obs::ScopedSpan span("classify-suite", "sim");
    return reportSuite(
        o,
        "ccm-sim classify suite (shards " +
            std::to_string(std::max(o.shards, 1U)) + ")",
        {"workload", "status", "refs", "miss%", "conflict%", "wall ms"},
        runClassifySuite(workloadNames(),
                         [&o](const std::string &name) {
                             return openTrace(o, name);
                         },
                         ccfg));
}

int
runClassifyMode(const Options &o)
{
    auto ccfg = buildClassifyConfig(o);
    if (!ccfg.ok()) {
        CCM_LOG_ERROR(ccfg.status().toString());
        return 1;
    }
    if (o.suite)
        return runClassifySuiteMode(o, ccfg.value());

    // records/sec: every trace record (non-memory included) over the
    // open-to-result wall time, the unit perfbench's Mrec/s uses.
    const auto start = std::chrono::steady_clock::now();
    auto trace = openTrace(o, o.workload);
    if (!trace.ok()) {
        CCM_LOG_ERROR(trace.status().toString());
        return 1;
    }
    ShardedClassifyResult res = [&] {
        obs::ScopedSpan span("classify:" + trace.value()->name(), "sim");
        return runShardedClassify(*trace.value(), ccfg.value());
    }();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    const MemStats &m = res.mem;
    std::cout << "== ccm-sim classify: " << trace.value()->name()
              << " ==\n"
              << "memory refs       " << res.references << "\n"
              << "L1 misses         " << res.misses << "\n"
              << "miss rate         " << m.missRatePct() << "%\n"
              << "conflict misses   " << m.conflictMisses << " ("
              << pct(m.conflictMisses, m.l1Misses)
              << "% of L1 misses)\n"
              << "capacity misses   " << m.capacityMisses << "\n"
              << "shards            " << res.shards << "\n"
              << "records/sec       "
              << (wall > 0.0
                      ? static_cast<std::uint64_t>(
                            static_cast<double>(res.records) / wall)
                      : 0)
              << "\n";
    if (o.dumpRaw) {
        std::cout << "\n";
        m.dump(std::cout);
    }

    if (!o.stats.path.empty()) {
        obs::JsonValue doc =
            obs::classifyDocument(trace.value()->name(), res);
        doc.set("arch", obs::JsonValue::str(o.arch));
        return emitStatsDoc(o, std::move(doc));
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
        } else if (a == "--list") {
            for (const auto &n : workloadNames())
                std::cout << n << "\n";
            return 0;
        } else if (a == "--workload") {
            s = args.value(o.workload);
        } else if (a == "--trace") {
            s = args.value(o.tracePath);
        } else if (a == "--suite") {
            o.suite = true;
        } else if (a == "--trace-dir") {
            s = args.value(o.traceDir);
        } else if (a == "--budget") {
            s = args.number(o.budget);
        } else if (a == "--tolerate-truncation") {
            o.tolerateTruncation = true;
        } else if (a == "--jobs") {
            s = args.number(o.jobs);
        } else if (a == "--classify") {
            o.classify = true;
        } else if (a == "--shards") {
            s = args.number(o.shards);
        } else if (a == "--mct-depth") {
            s = args.number(o.mctDepth);
        } else if (a == "--refs") {
            s = args.number(o.refs);
        } else if (a == "--seed") {
            s = args.number(o.seed);
        } else if (a == "--arch") {
            s = args.value(o.arch);
        } else if (a == "--l1-kb") {
            s = args.number(o.l1Kb, kMaxKb);
        } else if (a == "--l1-assoc") {
            s = args.number(o.l1Assoc);
        } else if (a == "--l2-kb") {
            s = args.number(o.l2Kb, kMaxKb);
        } else if (a == "--buf-entries") {
            s = args.number(o.bufEntries);
        } else if (a == "--mct-bits") {
            s = args.number(o.mctTagBits);
        } else if (a == "--filter") {
            s = args.value(o.filter);
        } else if (a == "--filter-swaps") {
            o.filterSwaps = true;
        } else if (a == "--filter-fills") {
            o.filterFills = true;
        } else if (a == "--pref-filtered") {
            o.prefFiltered = true;
        } else if (a == "--pref-kind") {
            s = args.value(o.prefKind);
        } else if (a == "--exclude-algo") {
            s = args.value(o.excludeAlgo);
        } else if (a == "--victim") {
            o.ambVictim = true;
        } else if (a == "--prefetch") {
            o.ambPrefetch = true;
        } else if (a == "--exclude") {
            o.ambExclude = true;
        } else if (a == "--raw") {
            o.dumpRaw = true;
        } else if (a == "--auto-size") {
            o.autoSize = true;
        } else if (obs::StatsTarget::isFlag(a)) {
            s = o.stats.parseFlag(args);
        } else if (a == "--interval") {
            s = args.number(o.interval);
        } else if (a == "--trace-events") {
            s = args.number(o.traceEvents);
        } else if (a == "--trace-spans") {
            s = args.value(o.traceSpans);
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

    using namespace ccm;

    if (!o.traceSpans.empty()) {
        Status ts = obs::SpanTracer::global().enableToFile(o.traceSpans);
        if (!ts.isOk()) {
            CCM_LOG_ERROR(ts.toString());
            return 1;
        }
    }

    // --shards parallelizes the classify pipeline only: the timing
    // model couples sets (MSHRs, bus contention) and cannot shard.
    if (o.shards != 1 && !o.classify) {
        CCM_LOG_ERROR(Status::badConfig(
                          "--shards requires --classify (the timing "
                          "model cannot be sharded; use --jobs for "
                          "suite-level parallelism)")
                          .toString());
        return 1;
    }
    if (o.classify && o.traceEvents > 0) {
        CCM_LOG_ERROR(Status::badConfig(
                          "--trace-events is not supported in "
                          "--classify mode")
                          .toString());
        return 1;
    }
    if (o.suite && !o.tracePath.empty()) {
        CCM_LOG_ERROR(Status::badConfig(
                          "--suite reads one trace per workload: use "
                          "--trace-dir, not --trace")
                          .toString());
        return 1;
    }
    if (o.autoSize && (!o.suite || o.classify)) {
        CCM_LOG_ERROR(Status::badConfig(
                          "--auto-size requires the timing suite "
                          "(--suite without --classify)")
                          .toString());
        return 1;
    }

    if (o.classify) {
        const int rc = runClassifyMode(o);
        Status fs = obs::SpanTracer::global().flush();
        if (!fs.isOk())
            CCM_LOG_ERROR(fs.toString());
        return rc;
    }

    // One validation for the whole timing run: a bad config is one
    // bad-config line before any suite row runs.
    auto built = buildConfig(o);
    if (!built.ok()) {
        CCM_LOG_ERROR(built.status().toString());
        return 1;
    }
    const SystemConfig cfg = built.take();
    if (o.suite) {
        const int rc = runSuiteMode(o, cfg);
        Status fs = obs::SpanTracer::global().flush();
        if (!fs.isOk())
            CCM_LOG_ERROR(fs.toString());
        return rc;
    }

    auto opened = openTrace(o, o.workload);
    if (!opened.ok()) {
        CCM_LOG_ERROR(opened.status().toString());
        return 1;
    }
    const std::unique_ptr<TraceSource> src = opened.take();
    RunObservers obsv = makeObservers(o);
    RunOutput r = [&] {
        obs::ScopedSpan span("run:" + src->name(), "sim");
        return runTiming(*src, cfg, [&](MemorySystem &mem) {
            obsv.attach(mem);
        });
    }();
    if (obsv.sampler)
        r.adoptWindows(*obsv.sampler);
    const MemStats &m = r.mem;

    std::cout << "== ccm-sim: " << src->name() << " on " << o.arch
              << " ==\n"
              << "instructions      " << r.sim.instructions << "\n"
              << "memory refs       " << r.sim.memRefs << "\n"
              << "cycles            " << r.sim.cycles << "\n"
              << "ipc               " << r.sim.ipc << "\n\n"
              << "L1 hit rate       " << m.l1HitRatePct() << "%\n"
              << "buffer hit rate   " << m.bufHitRatePct() << "%\n"
              << "total hit rate    " << m.totalHitRatePct() << "%\n"
              << "miss rate         " << m.missRatePct() << "%\n"
              << "conflict misses   " << m.conflictMisses << " ("
              << pct(m.conflictMisses, m.l1Misses)
              << "% of L1 misses)\n"
              << "capacity misses   " << m.capacityMisses << "\n";
    if (m.swaps || m.victimFills)
        std::cout << "swaps/fills       " << m.swapRatePct() << "% / "
                  << m.fillRatePct() << "% of accesses\n";
    if (m.prefIssued)
        std::cout << "prefetch acc/cov  " << m.prefAccuracyPct()
                  << "% / " << m.prefCoveragePct() << "%\n";
    if (m.excluded)
        std::cout << "excluded lines    " << m.excluded << "\n";
    if (m.pseudoSecondaryHits)
        std::cout << "pseudo 1st/2nd    " << m.pseudoPrimaryHits
                  << " / " << m.pseudoSecondaryHits << "\n";

    if (o.dumpRaw) {
        std::cout << "\n";
        m.dump(std::cout);
    }

    int rc = 0;
    if (!o.stats.path.empty()) {
        obs::JsonValue doc =
            obs::runDocument(src->name(), r, obsv.events.get());
        doc.set("arch", obs::JsonValue::str(o.arch));
        rc = emitStatsDoc(o, std::move(doc));
    }
    Status fs = obs::SpanTracer::global().flush();
    if (!fs.isOk())
        CCM_LOG_ERROR(fs.toString());
    return rc;
}
