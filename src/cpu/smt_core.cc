#include "cpu/smt_core.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"
#include "trace/batch_reader.hh"

namespace ccm
{

namespace
{

/** Per-context execution state. */
struct Context
{
    std::vector<Cycle> rob;   ///< completion cycles, ring buffer
    std::size_t head = 0;     ///< oldest entry
    std::size_t tail = 0;     ///< next free slot, (head + count) wrapped
    std::size_t count = 0;
    Cycle lastLoadComplete = 0;
    MemRecord pending;        ///< next record to dispatch
    bool havePending = false;
    bool drained = false;
    Count instrs = 0;
};

} // namespace

SmtCore::SmtCore(const CoreConfig &config, unsigned threads)
    : cfg(config), nThreads(threads)
{
    if (threads == 0)
        ccm_fatal("SMT core needs at least one context");
    if (cfg.robSize / threads == 0)
        ccm_fatal("window too small for ", threads, " contexts");
}

SmtResult
SmtCore::run(const std::vector<TraceSource *> &traces,
             MemorySystem &mem)
{
    if (traces.size() != nThreads)
        ccm_fatal("expected ", nThreads, " traces, got ",
                  traces.size());

    const std::size_t window = cfg.robSize / nThreads;
    std::vector<Context> ctx(nThreads);
    // One batch-buffered reader per hardware context (the contexts'
    // traces are independent streams).
    std::vector<BatchReader> readers;
    readers.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) {
        ctx[t].rob.assign(window, 0);
        traces[t]->reset();
        readers.emplace_back(*traces[t]);
        ctx[t].havePending = readers[t].next(ctx[t].pending);
        ctx[t].drained = !ctx[t].havePending;
    }

    Cycle now = cfg.pipelineFill;
    std::vector<unsigned> order(nThreads);

    auto all_done = [&]() {
        for (const auto &c : ctx) {
            if (!c.drained || c.count > 0)
                return false;
        }
        return true;
    };

    while (!all_done()) {
        // ---- retire: shared width, round-robin over contexts ----
        unsigned retired = 0;
        for (unsigned t = 0; t < nThreads && retired < cfg.retireWidth;
             ++t) {
            Context &c = ctx[t];
            while (c.count > 0 && retired < cfg.retireWidth &&
                   c.rob[c.head] <= now) {
                if (++c.head == window)
                    c.head = 0;
                --c.count;
                ++retired;
            }
        }

        // ---- fetch/dispatch: ICOUNT order ----
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](unsigned a, unsigned b) {
                      return ctx[a].count < ctx[b].count;
                  });

        unsigned dispatched = 0;
        unsigned lsu_used = 0;
        for (unsigned t : order) {
            Context &c = ctx[t];
            while (c.havePending && dispatched < cfg.fetchWidth &&
                   c.count < window) {
                Cycle complete;
                MemRecord &rec = c.pending;
                if (rec.isMem()) {
                    if (lsu_used >= cfg.loadStoreUnits)
                        break;
                    ++lsu_used;
                    Cycle issue = now;
                    if (rec.dependsOnPrevLoad)
                        issue = std::max(issue, c.lastLoadComplete);
                    AccessResult r =
                        mem.access(rec.pcAddr(), rec.dataAddr(),
                                   rec.isStore(), issue);
                    if (rec.isStore()) {
                        complete = now + 1;
                    } else {
                        complete = r.ready;
                        c.lastLoadComplete = r.ready;
                    }
                } else {
                    complete = now + 1;
                }
                c.rob[c.tail] = complete;
                if (++c.tail == window)
                    c.tail = 0;
                ++c.count;
                ++c.instrs;
                ++dispatched;
                c.havePending = readers[t].next(c.pending);
                if (!c.havePending)
                    c.drained = true;
            }
        }

        // ---- advance time, fast-forwarding global stalls ----
        bool can_progress = dispatched > 0;
        if (!can_progress) {
            // Jump to the earliest completion that unblocks someone.
            Cycle next_event = 0;
            for (const auto &c : ctx) {
                if (c.count > 0) {
                    Cycle head_done = c.rob[c.head];
                    if (next_event == 0 || head_done < next_event)
                        next_event = head_done;
                }
            }
            now = std::max(now + 1, next_event);
        } else {
            ++now;
        }
    }

    SmtResult res;
    res.cycles = now;
    res.perThreadInstrs.resize(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) {
        res.perThreadInstrs[t] = ctx[t].instrs;
        res.totalInstructions += ctx[t].instrs;
    }
    res.throughputIpc =
        res.cycles == 0
            ? 0.0
            : double(res.totalInstructions) / double(res.cycles);
    return res;
}

} // namespace ccm
