/**
 * @file
 * A deliberately naive reference model of the out-of-order core's
 * timing (src/cpu/core.hh), written as a per-instruction recurrence
 * instead of a cycle loop, for differential tests.
 *
 * R = robSize, W = fetchWidth, RW = retireWidth, L = loadStoreUnits.
 * Instruction i dispatches at D_i, completes at C_i and retires at T_i:
 *
 *   D_i = max(D_{i-1}, T_{i-R}, D_{i-W} + 1), and D_0 >= pipelineFill;
 *         a memory op also needs D_i >= (D of the L-th previous memory
 *         op) + 1.
 *   C_i = a load issues at D_i, or at the previous load's ready cycle
 *         if that is later and the load depends on it, and completes
 *         at the memory system's ready cycle; stores and non-memory
 *         instructions complete at D_i + 1.
 *   T_i = max(C_i, D_i + 1, T_{i-1}, T_{i-RW} + 1).
 *
 * cycles = T_last + 1, or pipelineFill for an empty trace.  Every
 * memory access, the wrong-path loads included, is issued in program
 * order; a non-memory instruction's wrong-path burst issues at D_i.
 * Each history is a whole vector indexed by instruction number: no
 * ring, no window count, no cycle loop.
 */

#ifndef CCM_TESTS_REF_CORE_REF_HH
#define CCM_TESTS_REF_CORE_REF_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/random.hh"
#include "cpu/core.hh"
#include "hierarchy/memsys.hh"
#include "trace/record.hh"

namespace ccm::ref
{

/** Time @p trace on @p mem by the recurrence above. */
inline SimResult
runCoreRef(const std::vector<MemRecord> &trace, const CoreConfig &cfg,
           MemorySystem &mem)
{
    const std::size_t n = trace.size();
    const std::size_t R = cfg.robSize;
    const std::size_t W = cfg.fetchWidth;
    const std::size_t RW = cfg.retireWidth;
    const std::size_t L = cfg.loadStoreUnits;

    std::vector<Cycle> D(n), C(n), T(n);
    std::vector<Cycle> mem_dispatch;   // D of every memory op, in order
    Pcg32 wrong_path(0xbadb07);
    Addr last_mem_addr = 0;
    Cycle last_load_ready = 0;
    Count mem_refs = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const MemRecord &r = trace[i];

        Cycle d = i == 0 ? cfg.pipelineFill : D[i - 1];
        if (i >= R)
            d = std::max(d, T[i - R]);
        if (i >= W)
            d = std::max(d, D[i - W] + 1);
        if (r.isMem() && mem_dispatch.size() >= L)
            d = std::max(d, mem_dispatch[mem_dispatch.size() - L] + 1);
        D[i] = d;

        if (r.isMem()) {
            mem_dispatch.push_back(d);
            ++mem_refs;
            Cycle issue = d;
            if (r.dependsOnPrevLoad)
                issue = std::max(issue, last_load_ready);
            const AccessResult a = mem.access(
                ByteAddr{r.pc}, ByteAddr{r.addr}, r.isStore(), issue);
            last_mem_addr = r.addr;
            if (r.isStore()) {
                C[i] = d + 1;
            } else {
                C[i] = a.ready;
                last_load_ready = a.ready;
            }
        } else {
            C[i] = d + 1;
            if (cfg.wrongPathRate != 0 &&
                wrong_path.below(cfg.wrongPathRate) == 0) {
                for (unsigned k = 0; k < cfg.wrongPathBurst; ++k) {
                    const Addr offset = Addr(wrong_path.below(256));
                    const Addr wild = last_mem_addr + (offset - 128) * 64;
                    mem.access(ByteAddr{r.pc ^ 0x4}, ByteAddr{wild},
                               false, d);
                }
            }
        }

        Cycle t = std::max(C[i], d + 1);
        if (i >= 1)
            t = std::max(t, T[i - 1]);
        if (i >= RW)
            t = std::max(t, T[i - RW] + 1);
        T[i] = t;
    }

    SimResult res;
    res.cycles = n == 0 ? cfg.pipelineFill : T[n - 1] + 1;
    res.instructions = n;
    res.memRefs = mem_refs;
    res.ipc = res.cycles == 0 ? 0.0
                              : static_cast<double>(n) /
                                    static_cast<double>(res.cycles);
    return res;
}

} // namespace ccm::ref

#endif // CCM_TESTS_REF_CORE_REF_HH
