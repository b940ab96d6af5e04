/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries: the
 * timing workload suite and its parameters.
 *
 * The paper measures 300M-instruction windows of SPEC95; we use
 * smaller deterministic synthetic traces (DESIGN.md substitutions) so
 * every binary finishes in seconds.  Following §4, the timing
 * sections carry forward the subset of the suite with an interesting
 * conflict/capacity mix (the classification study in fig1/fig2 keeps
 * all twelve).
 */

#ifndef CCM_BENCH_COMMON_HH
#define CCM_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/thread_pool.hh"
#include "obs/sink.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm::bench
{

/** Memory references per workload in timing runs. */
constexpr std::size_t timingRefs = 400'000;

/** Seed shared by every experiment. */
constexpr std::uint64_t seed = 42;

/** Workloads carried into the timing sections (§5). */
inline const std::vector<std::string> &
timingSuite()
{
    // The paper keeps benchmarks with "at least a somewhat
    // interesting mix of conflict and capacity behavior"; swim and
    // mgrid stay (they anchor the capacity/prefetch side, and swim is
    // discussed in §5.2).
    static const std::vector<std::string> names = {
        "tomcatv", "swim", "mgrid", "applu", "turb3d", "wave5",
        "go", "gcc", "compress", "li", "perl", "vortex",
    };
    return names;
}

/** Materialize one timing workload as a replayable in-memory trace. */
inline VectorTrace
captureWorkload(const std::string &name,
                std::size_t refs = timingRefs)
{
    auto wl = makeWorkload(name, refs, seed);
    return VectorTrace::capture(*wl);
}

/**
 * Leave a machine-readable BENCH_<name>.json record of the table a
 * bench binary just printed (destination: $CCM_BENCH_JSON_DIR, else
 * the working directory).  Failure to write is a warning, not an
 * error — the printed table is still the primary output.
 */
inline void
emitBenchJson(const std::string &name, const TextTable &table,
              const std::string &note = "")
{
    Expected<std::string> path = obs::writeBenchJson(name, table, note);
    if (path.ok())
        std::cout << "(wrote " << path.value() << ")\n";
    else
        std::cerr << "warning: " << path.status().toString() << "\n";
}

/**
 * Parse the one flag the figure/table binaries accept: `--jobs N`
 * (default 1 = the historical single-threaded behaviour, 0 = one
 * worker per hardware thread).  Anything else is rejected so the
 * binaries stay honest about taking no other arguments.
 */
inline std::size_t
parseJobs(int argc, char **argv)
{
    std::size_t jobs = 1;
    ArgCursor args(argc, argv);
    while (args.next()) {
        if (args.flag() != "--jobs") {
            std::cerr << "usage: " << argv[0] << " [--jobs N]\n";
            std::exit(1);
        }
        Status s = args.number(jobs);
        if (!s.isOk()) {
            std::cerr << s.toString() << "\n";
            std::exit(1);
        }
    }
    return jobs;
}

} // namespace ccm::bench

#endif // CCM_BENCH_COMMON_HH
