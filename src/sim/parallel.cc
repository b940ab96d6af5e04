#include "sim/parallel.hh"

#include <exception>

#include "common/sync.hh"
#include "common/thread_pool.hh"

namespace ccm
{

namespace
{

/** Sequential fallback: the calling thread runs every cell. */
SuiteReport
runSequential(const std::vector<std::string> &names,
              const SuiteTraceFactory &factory,
              const SystemConfig &config,
              const ParallelSuiteOptions &opts)
{
    SuiteReport report;
    report.rows.reserve(names.size());
    for (const auto &name : names) {
        const SystemConfig cfg =
            opts.configFor ? opts.configFor(name, config) : config;
        report.rows.push_back(
            runSuiteCell(name, factory, cfg, opts.instrument));
    }
    return report;
}

} // namespace

SuiteReport
runSuiteParallel(const std::vector<std::string> &names,
                 const SuiteTraceFactory &factory,
                 const SystemConfig &config,
                 const ParallelSuiteOptions &opts)
{
    const std::size_t jobs = resolveJobCount(opts.jobs);
    if (jobs <= 1 || names.size() <= 1)
        return runSequential(names, factory, config, opts);

    SuiteReport report;
    report.rows.resize(names.size());

    // Contract point 1: instrument invocations are mutually excluded.
    Mutex instrument_mtx(LockRank::SuiteInstrumentGate,
                         "suite-instrument");
    SuiteInstrument serialized;
    if (opts.instrument) {
        serialized = [&](const std::string &name, MemorySystem &m) {
            MutexLock lock(instrument_mtx);
            opts.instrument(name, m);
        };
    }

    // Row slots are disjoint, so workers write them unlocked.
    // waitIdle() publishes every slot to the calling thread: each
    // worker leaves its task by decrementing the pool's busy count
    // under the pool mutex, which waitIdle() then takes.
    ThreadPool pool(jobs < names.size() ? jobs : names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.submit([&, i] {
            SuiteRow row;
            try {
                const SystemConfig cfg =
                    opts.configFor ? opts.configFor(names[i], config)
                                   : config;
                row = runSuiteCell(names[i], factory, cfg,
                                   serialized);
            } catch (const std::exception &e) {
                // runSuiteCell already captures fatal/user errors;
                // this is the last-resort net (e.g. bad_alloc) that
                // keeps the pool's no-throw requirement.
                row.workload = names[i];
                row.status = Status::internal("suite cell failed: ",
                                              e.what());
            }
            report.rows[i] = std::move(row);
        });
    }
    pool.waitIdle();
    return report;
}

} // namespace ccm
