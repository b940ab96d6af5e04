#include "cpu/core.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "trace/batch_reader.hh"

namespace ccm
{

SimResult
Core::run(TraceSource &trace, MemorySystem &mem)
{
    trace.reset();

    // Pull records in batches: the per-record virtual next() call is
    // the hottest dispatch in a timing run (docs/PERFORMANCE.md).
    BatchReader reader(trace);

    // Deterministic wrong-path generator (squashed speculative
    // loads; see CoreConfig::wrongPathRate).
    Pcg32 wp_rng(0xbadb07);
    Addr last_mem_addr = 0;

    // The configuration in locals: mem.access() is an opaque call, so
    // members would be reloaded after every memory reference.
    const std::size_t rob_size = cfg.robSize;
    const unsigned fetch_width = cfg.fetchWidth;
    const unsigned retire_width = cfg.retireWidth;
    const unsigned lsus = cfg.loadStoreUnits;
    const unsigned wrong_path_rate = cfg.wrongPathRate;

    // Ring buffer of completion cycles: the reorder window.  Head and
    // tail wrap by compare, not by a divide per instruction.
    std::vector<Cycle> rob(rob_size, 0);
    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t count = 0;

    Cycle now = cfg.pipelineFill;   // fill the 7-stage front end
    Count instrs = 0;
    Count mem_refs = 0;
    Cycle last_load_complete = 0;

    MemRecord rec;
    bool have = reader.next(rec);

    while (have || count > 0) {
        // In-order retire, up to retireWidth per cycle.
        unsigned retired = 0;
        while (count > 0 && retired < retire_width &&
               rob[head] <= now) {
            if (++head == rob_size)
                head = 0;
            --count;
            ++retired;
        }

        // Fetch/dispatch, bounded by width, window space, and
        // load/store units.
        unsigned dispatched = 0;
        unsigned lsu_used = 0;
        while (have && dispatched < fetch_width && count < rob_size) {
            Cycle complete;
            if (rec.isMem()) {
                if (lsu_used >= lsus)
                    break;
                ++lsu_used;
                Cycle issue = now;
                if (rec.dependsOnPrevLoad)
                    issue = std::max(issue, last_load_complete);
                AccessResult r = mem.access(
                    rec.pcAddr(), rec.dataAddr(), rec.isStore(),
                    issue);
                ++mem_refs;
                last_mem_addr = rec.addr;
                if (rec.isStore()) {
                    // Store buffer: retire without waiting for data.
                    complete = now + 1;
                } else {
                    complete = r.ready;
                    last_load_complete = r.ready;
                }
            } else {
                complete = now + 1;
                // Branch-mispredict wrong path: a burst of squashed
                // speculative loads near the recent access region —
                // they disturb the caches and the MCT but never
                // enter the window.
                if (wrong_path_rate != 0 &&
                    wp_rng.below(wrong_path_rate) == 0) {
                    for (unsigned w = 0; w < cfg.wrongPathBurst;
                         ++w) {
                        Addr wild = last_mem_addr +
                                    (Addr(wp_rng.below(256)) -
                                     128) * 64;
                        mem.access(ByteAddr{rec.pc ^ 0x4},
                                   ByteAddr{wild}, false, now);
                    }
                }
            }
            rob[tail] = complete;
            if (++tail == rob_size)
                tail = 0;
            ++count;
            ++instrs;
            ++dispatched;
            have = reader.next(rec);
        }

        // Advance time; when the window is blocked, jump straight to
        // the head's completion instead of idling cycle by cycle.
        bool blocked = count > 0 && rob[head] > now &&
                       (count == rob_size || !have);
        if (blocked)
            now = rob[head];
        else
            ++now;
    }

    SimResult res;
    res.cycles = now;
    res.instructions = instrs;
    res.memRefs = mem_refs;
    res.ipc = res.cycles == 0
                  ? 0.0
                  : static_cast<double>(instrs) /
                        static_cast<double>(res.cycles);
    return res;
}

} // namespace ccm
