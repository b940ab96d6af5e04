#include "remap/remap_sim.hh"

#include <algorithm>
#include <array>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "trace/batch_reader.hh"

namespace ccm
{

PageRemapSim::PageRemapSim(const RemapConfig &config)
    : cfg(config),
      geom(config.cacheBytes, 1, config.lineBytes),
      cache(geom),
      mct(geom.numSets()),
      cml(config.pageBytes),
      numColors(static_cast<unsigned>(config.cacheBytes /
                                      config.pageBytes)),
      colorLoad(numColors, 0)
{
    if (numColors < 2)
        ccm_fatal("cache must span >= 2 pages for recoloring to "
                  "mean anything");
    if (!isPowerOfTwo(numColors))
        ccm_fatal("colors must be a power of two: ", numColors);
    // Pre-size for a typical page working set so the per-reference
    // translate() lookup does not rehash mid-run.
    colorOf.reserve(4096);
}

ByteAddr
PageRemapSim::translate(ByteAddr vaddr)
{
    const unsigned page_shift = floorLog2(cfg.pageBytes);
    const unsigned color_bits = floorLog2(numColors);
    Addr vpage = vaddr.value() >> page_shift;

    auto it = colorOf.find(vpage);
    if (it == colorOf.end()) {
        // Default OS policy: page coloring (color = vpage mod
        // colors), the standard conflict-avoiding static layout.
        unsigned color =
            static_cast<unsigned>(vpage & (numColors - 1));
        it = colorOf.emplace(vpage, color).first;
        ++colorLoad[color];
    }

    // Synthesize a unique physical frame whose index bits inside the
    // cache equal the assigned color.
    Addr frame = (vpage << color_bits) | it->second;
    return ByteAddr{(frame << page_shift) |
                    (vaddr.value() & (cfg.pageBytes - 1))};
}

void
PageRemapSim::pollAndRemap()
{
    std::vector<Addr> hot = cml.hotPages(cfg.hotThreshold);
    cml.newEpoch();
    if (hot.size() < 2)
        return;

    // Group hot pages by their current color; where two or more hot
    // pages share a color, keep the hottest and move the rest each
    // to the least-loaded color.
    std::vector<bool> color_has_hot(numColors, false);
    for (Addr page : hot) {            // hottest first
        unsigned color = colorOf[page];
        if (!color_has_hot[color]) {
            color_has_hot[color] = true;
            continue;
        }
        // Contended: move this page to the least-loaded color.
        unsigned target = 0;
        for (unsigned c = 1; c < numColors; ++c) {
            if (colorLoad[c] < colorLoad[target])
                target = c;
        }
        if (target == color)
            continue;
        --colorLoad[color];
        ++colorLoad[target];
        colorOf[page] = target;
        ++remaps;
        // The moved page's lines are effectively invalidated (its
        // physical frame changed); the old frame's lines age out
        // naturally, which is close enough functionally.
        if (!color_has_hot[target])
            color_has_hot[target] = true;
    }
}

RemapResult
PageRemapSim::run(TraceSource &trace)
{
    RemapResult res;
    remaps = 0;

    trace.reset();
    // Loop-driven pipeline: batches are walked in place, same shape
    // as classifyRun.
    std::array<MemRecord, maxTraceBatch> buf;
    Count since_epoch = 0;
    for (std::size_t n; (n = trace.nextBatch(buf.data(), buf.size())) > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
            const MemRecord &r = buf[i];
            if (!r.isMem())
                continue;
            ++res.references;

            ByteAddr paddr = translate(r.dataAddr());
            if (!cache.access(paddr, r.isStore())) {
                ++res.misses;
                SetIndex set = geom.setOf(paddr);
                bool conflict =
                    mct.isConflictMiss(set, geom.tagOf(paddr));
                if (conflict || !cfg.conflictOnly)
                    cml.recordMiss(r.dataAddr());
                FillResult ev =
                    cache.fill(paddr, conflict, r.isStore());
                if (ev.valid)
                    mct.recordEviction(set, geom.tagOf(ev.lineAddr));
            }

            if (++since_epoch >= cfg.epochRefs) {
                since_epoch = 0;
                pollAndRemap();
            }
        }
    }

    res.remaps = remaps;
    res.missRate = safeRatio(res.misses, res.references);
    double remap_miss_equiv =
        static_cast<double>(remaps) *
        (static_cast<double>(cfg.remapCostCycles) / 100.0);
    res.effectiveMissRate =
        safeRatio(res.misses, res.references) +
        remap_miss_equiv / static_cast<double>(
                               std::max<Count>(res.references, 1));
    return res;
}

} // namespace ccm
