/**
 * @file
 * Ablation — shadow-directory depth (§2/§3 extension).
 *
 * The MCT stores one evicted tag per set; Stone/Pomerene's shadow
 * directory stores several ("we could store multiple evicted tags
 * per set to identify higher-order conflict misses, but we do not
 * consider that optimization").  This bench sweeps the depth and
 * reports classification accuracy against the classic oracle plus
 * storage cost, quantifying what the paper left on the table.
 */

#include <iostream>

#include "common/table.hh"
#include "mct/classify_run.hh"
#include "mct/mct.hh"
#include "workloads/registry.hh"

namespace
{

constexpr std::size_t memRefs = 500'000;
constexpr std::uint64_t seed = 42;

} // namespace

int
main()
{
    using namespace ccm;

    std::cout << "Ablation: shadow-directory depth "
              << "(16KB DM cache, 10-bit stored tags; depth 1 = the "
              << "paper's MCT)\n\n";

    TextTable table({"depth", "conflict acc %", "capacity acc %",
                     "overall acc %", "storage (KB)"});

    for (unsigned depth : {1u, 2u, 3u, 4u, 8u}) {
        AccuracyScorer pooled;
        for (const auto &spec : workloadSuite()) {
            auto wl = spec.make(memRefs, seed);
            ClassifyConfig cfg;
            cfg.mctTagBits = 10;
            cfg.mctDepth = depth;
            ClassifyResult res = classifyRun(*wl, cfg);
            pooled.merge(res.scorer);
        }
        auto row = table.addRow(std::to_string(depth));
        table.setNum(row, 1, pooled.conflictAccuracy(), 1);
        table.setNum(row, 2, pooled.capacityAccuracy(), 1);
        table.setNum(row, 3, pooled.overallAccuracy(), 1);
        // 16KB / 64B lines = 256 sets.
        const double storage_bits = static_cast<double>(
            MissClassificationTable(256, 10, depth).storageBits());
        table.setNum(row, 4, storage_bits / 8.0 / 1024.0, 2);
    }

    table.print(std::cout);
    std::cout << "\nexpected shape: deeper directories identify more "
              << "higher-order conflicts (conflict accuracy rises), "
              << "at linear storage cost; capacity accuracy dips "
              << "slightly as marginal reuses get relabelled\n";
    return 0;
}
