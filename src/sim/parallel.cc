#include "sim/parallel.hh"

#include <chrono>
#include <exception>

#include "common/thread_pool.hh"
#include "hierarchy/memsys.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace ccm
{

namespace
{

/** Suite telemetry: one wall-time sample per row, at every --jobs. */
void
noteRow(double wall_seconds)
{
    static obs::Histogram &row_wall_us =
        obs::MetricsRegistry::global().histogram(
            "ccm_suite_row_wall_us", "Suite row wall time (us)");
    static obs::Counter &rows_total =
        obs::MetricsRegistry::global().counter(
            "ccm_suite_rows_total", "Suite rows executed");
    row_wall_us.observe(static_cast<std::uint64_t>(wall_seconds * 1e6));
    rows_total.inc();
}

/**
 * The one row loop: row i of the report is names[i]'s trace from
 * @p factory, run through @p run(name, trace) -> Expected<Out>, the
 * rows spread over @p jobs workers.  Every error status and any
 * exception becomes the row's status, so a row never throws; the
 * row's span and wall time cover the factory and the run.  Row slots
 * are disjoint, so workers write them unlocked, and forEachIndex
 * publishes every slot to the calling thread.
 */
template <typename Out, typename Run>
SuiteReportOf<Out>
runRows(const std::vector<std::string> &names, std::size_t jobs,
        const SuiteTraceFactory &factory, const Run &run)
{
    SuiteReportOf<Out> report;
    report.rows.resize(names.size());
    forEachIndex(names.size(), jobs, [&](std::size_t i) {
        const std::string &name = names[i];
        SuiteRowOf<Out> &row = report.rows[i];
        obs::ScopedSpan span("row:" + name, "suite");
        const auto start = std::chrono::steady_clock::now();
        row.workload = name;
        try {
            Expected<std::unique_ptr<TraceSource>> trace = factory(name);
            if (!trace.ok()) {
                row.status = trace.status();
            } else if (!trace.value()) {
                row.status =
                    Status::internal("trace factory returned null");
            } else {
                Expected<Out> out = run(name, *trace.value());
                if (out.ok())
                    row.out = out.take();
                else
                    row.status = out.status();
            }
        } catch (const std::exception &e) {
            // Last-resort net (a throwing factory, bad_alloc) that
            // keeps forEachIndex's no-throw requirement.
            row.status = Status::internal("suite row failed: ", e.what());
        }
        row.status = row.status.withContext("workload '" + name + "'");
        row.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        noteRow(row.wallSeconds);
    });
    return report;
}

/**
 * tryRunTiming with the run's windows cut every @p interval
 * references (none when 0) and moved into its result.
 */
Expected<RunOutput>
sampledRun(TraceSource &trace, const SystemConfig &config, Count interval)
{
    if (interval == 0)
        return tryRunTiming(trace, config);
    obs::IntervalSampler sampler(interval);
    Expected<RunOutput> run =
        tryRunTiming(trace, config, [&sampler](MemorySystem &mem) {
            mem.setAccessHook(
                [&sampler](const AccessResult &, const MemStats &st) {
                    sampler.onAccess(st);
                });
        });
    if (run.ok())
        run.value().adoptWindows(sampler);
    return run;
}

} // namespace

SuiteReport
runSuiteParallel(const std::vector<std::string> &names,
                 const SuiteTraceFactory &factory,
                 const SystemConfig &config,
                 const ParallelSuiteOptions &opts)
{
    return runRows<RunOutput>(
        names, opts.jobs, factory,
        [&](const std::string &name, TraceSource &trace) {
            return sampledRun(trace,
                              opts.configFor ? opts.configFor(name, config)
                                             : config,
                              opts.interval);
        });
}

ClassifySuiteReport
runClassifySuite(const std::vector<std::string> &names,
                 const SuiteTraceFactory &factory,
                 const ShardedClassifyConfig &cfg)
{
    return runRows<ShardedClassifyResult>(
        names, 1, factory,
        [&](const std::string &, TraceSource &trace)
            -> Expected<ShardedClassifyResult> {
            return runShardedClassify(trace, cfg);
        });
}

} // namespace ccm
