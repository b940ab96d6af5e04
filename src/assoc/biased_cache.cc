#include "assoc/biased_cache.hh"

#include "common/log.hh"

namespace ccm
{

BiasedAssocCache::BiasedAssocCache(const CacheGeometry &geometry,
                                   bool use_bias,
                                   unsigned mct_tag_bits)
    : cache(geometry), useBias(use_bias),
      mct(geometry.numSets(), mct_tag_bits)
{
}

WayIndex
BiasedAssocCache::chooseVictim(SetIndex set,
                               bool &bias_applied) const
{
    const CacheGeometry &g = cache.geometry();
    bias_applied = false;

    // Free way first.
    for (unsigned w = 0; w < g.assoc(); ++w) {
        if (!cache.lineAt(set, WayIndex{w}).valid)
            return WayIndex{w};
    }

    // Plain LRU victim for reference.
    unsigned lru = 0;
    for (unsigned w = 1; w < g.assoc(); ++w) {
        if (cache.lineAt(set, WayIndex{w}).lastUse <
            cache.lineAt(set, WayIndex{lru}).lastUse)
            lru = w;
    }
    if (!useBias)
        return WayIndex{lru};

    // Biased: LRU among capacity-miss (unmarked) lines.
    bool found = false;
    unsigned victim = 0;
    for (unsigned w = 0; w < g.assoc(); ++w) {
        const CacheLine &l = cache.lineAt(set, WayIndex{w});
        if (l.conflictBit)
            continue;
        if (!found ||
            l.lastUse < cache.lineAt(set, WayIndex{victim}).lastUse) {
            victim = w;
            found = true;
        }
    }
    if (!found)
        return WayIndex{lru};  // every line protected: plain LRU
    bias_applied = victim != lru;
    return WayIndex{victim};
}

BiasedAccess
BiasedAssocCache::access(ByteAddr addr, bool is_store)
{
    BiasedAccess out;
    if (cache.access(addr, is_store)) {
        ++nHits;
        out.hit = true;
        return out;
    }
    ++nMisses;

    const CacheGeometry &g = cache.geometry();
    const SetIndex set = g.setOf(addr);
    const Tag tag = g.tagOf(addr);

    out.wasConflict = mct.isConflictMiss(set, tag);

    bool bias_applied = false;
    WayIndex way = chooseVictim(set, bias_applied);
    out.biasApplied = bias_applied;
    if (bias_applied)
        ++nOverrides;

    FillResult ev = cache.fillWay(addr, way, out.wasConflict,
                                  is_store);
    if (ev.valid) {
        out.evictedValid = true;
        out.evictedLineAddr = ev.lineAddr;
        out.evictedDirty = ev.dirty;
        mct.recordEviction(set, g.tagOf(ev.lineAddr));
    }
    return out;
}

void
BiasedAssocCache::clear()
{
    cache.clear();
    mct.clear();
    nHits = nMisses = nOverrides = 0;
}

} // namespace ccm
