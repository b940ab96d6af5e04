#include "cache/cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccm
{

Cache::Cache(const CacheGeometry &geometry)
    : geom(geometry), lines(geometry.numLines()),
      setMisses_(geometry.numSets(), 0),
      setEvictions_(geometry.numSets(), 0)
{
}

WayIndex
Cache::chooseVictimWay(SetIndex set) const
{
    const CacheLine *base = &lines[slotOf(set, WayIndex{0})];

    // An invalid way always wins.
    for (unsigned w = 0; w < geom.assoc(); ++w) {
        if (!base[w].valid)
            return WayIndex{w};
    }

    unsigned victim = 0;
    for (unsigned w = 1; w < geom.assoc(); ++w) {
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    return WayIndex{victim};
}

const CacheLine *
Cache::victimFor(ByteAddr addr) const
{
    SetIndex set = geom.setOf(addr);
    const CacheLine *base = &lines[slotOf(set, WayIndex{0})];
    for (unsigned w = 0; w < geom.assoc(); ++w) {
        if (!base[w].valid)
            return nullptr;
    }
    return &base[chooseVictimWay(set).value()];
}

FillResult
Cache::fill(ByteAddr addr, bool conflict_bit, bool is_store)
{
    SetIndex set = geom.setOf(addr);
    return fillWay(addr, chooseVictimWay(set), conflict_bit, is_store);
}

FillResult
Cache::fillWay(ByteAddr addr, WayIndex way, bool conflict_bit,
               bool is_store)
{
    if (way.value() >= geom.assoc())
        ccm_panic("fillWay: way ", way.value(), " out of range");

    SetIndex set = geom.setOf(addr);
    CacheLine &l = lines[slotOf(set, way)];

    FillResult evicted;
    if (l.valid) {
        evicted.valid = true;
        evicted.lineAddr = geom.recompose(l.tag, set);
        evicted.dirty = l.dirty;
        evicted.conflictBit = l.conflictBit;
        ++nEvictions;
        ++setEvictions_[set.value()];
    } else {
        ++nResident;
    }

    ++tick;
    l.valid = true;
    l.tag = geom.tagOf(addr);
    l.dirty = is_store;
    l.conflictBit = conflict_bit;
    l.lastUse = tick;
    ++nFills;
    return evicted;
}

bool
Cache::invalidate(ByteAddr addr)
{
    CacheLine *l = lookupMutable(addr);
    if (!l)
        return false;
    l->valid = false;
    l->dirty = false;
    l->conflictBit = false;
    --nResident;
    return true;
}

CacheLine &
Cache::lineAt(SetIndex set, WayIndex way)
{
    if (set.value() >= geom.numSets() || way.value() >= geom.assoc())
        ccm_panic("lineAt(", set.value(), ",", way.value(),
                  ") out of range");
    return lines[slotOf(set, way)];
}

const CacheLine &
Cache::lineAt(SetIndex set, WayIndex way) const
{
    if (set.value() >= geom.numSets() || way.value() >= geom.assoc())
        ccm_panic("lineAt(", set.value(), ",", way.value(),
                  ") out of range");
    return lines[slotOf(set, way)];
}

LineAddr
Cache::lineAddrAt(SetIndex set, WayIndex way) const
{
    const CacheLine &l = lineAt(set, way);
    if (!l.valid)
        return invalidLineAddr;
    return geom.recompose(l.tag, set);
}

void
Cache::clear()
{
    for (auto &l : lines)
        l = CacheLine{};
    tick = 0;
    nHits = nMisses = nFills = nEvictions = 0;
    nResident = 0;
    std::fill(setMisses_.begin(), setMisses_.end(), 0);
    std::fill(setEvictions_.begin(), setEvictions_.end(), 0);
}

} // namespace ccm
