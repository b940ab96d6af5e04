#include "exclude/history.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

MissHistoryTable::MissHistoryTable(std::size_t entries,
                                   std::size_t region_bytes)
    : table(entries), regionShift(floorLog2(region_bytes)),
      mask(entries - 1)
{
    if (!isPowerOfTwo(entries))
        ccm_fatal("history entries must be a power of two: ", entries);
    if (!isPowerOfTwo(region_bytes))
        ccm_fatal("history region must be a power of two: ",
                  region_bytes);
}

std::size_t
MissHistoryTable::indexOf(Addr addr) const
{
    // XOR-folded like the MAT (see mat.cc): avoids systematic
    // aliasing of regions a power-of-two apart.
    Addr region = addr >> regionShift;
    return (region ^ (region >> 10) ^ (region >> 20)) & mask;
}

Addr
MissHistoryTable::tagOf(Addr addr) const
{
    return addr >> regionShift;
}

const MissHistoryTable::Entry *
MissHistoryTable::lookup(Addr addr) const
{
    const Entry &e = table[indexOf(addr)];
    if (!e.valid || e.tag != tagOf(addr))
        return nullptr;
    return &e;
}

void
MissHistoryTable::recordMiss(ByteAddr baddr, MissClass cls)
{
    const Addr addr = baddr.value();
    Entry &e = table[indexOf(addr)];
    if (!e.valid || e.tag != tagOf(addr)) {
        e.valid = true;
        e.tag = tagOf(addr);
        e.counter = 4;
    }
    if (isConflict(cls)) {
        if (e.counter < 7)
            ++e.counter;
    } else {
        if (e.counter > 0)
            --e.counter;
    }
}

bool
MissHistoryTable::conflictHistory(ByteAddr addr) const
{
    const Entry *e = lookup(addr.value());
    return e && e->counter >= 6;
}

bool
MissHistoryTable::capacityHistory(ByteAddr addr) const
{
    const Entry *e = lookup(addr.value());
    return e && e->counter <= 1;
}

void
MissHistoryTable::clear()
{
    for (auto &e : table)
        e = Entry{};
}

} // namespace ccm
