#include "sim/parallel.hh"

#include <exception>

#include "common/sync.hh"
#include "common/thread_pool.hh"

namespace ccm
{

SuiteReport
runSuiteParallel(const std::vector<std::string> &names,
                 const SuiteTraceFactory &factory,
                 const SystemConfig &config,
                 const ParallelSuiteOptions &opts)
{
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

    // Row slots are disjoint, so workers write them unlocked, and
    // forEachIndex publishes every slot to the calling thread.
    forEachIndex(names.size(), opts.jobs, [&](std::size_t i) {
        SuiteRow row;
        try {
            const SystemConfig cfg =
                opts.configFor ? opts.configFor(names[i], config)
                               : config;
            row = runSuiteCell(names[i], factory, cfg, serialized);
        } catch (const std::exception &e) {
            // runSuiteCell already captures fatal/user errors; this
            // is the last-resort net (e.g. bad_alloc) that keeps
            // forEachIndex's no-throw requirement.
            row.workload = names[i];
            row.status =
                Status::internal("suite cell failed: ", e.what());
        }
        report.rows[i] = std::move(row);
    });
    return report;
}

} // namespace ccm
