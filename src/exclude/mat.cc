#include "exclude/mat.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

MemoryAccessTable::MemoryAccessTable(std::size_t entries,
                                     std::size_t region_bytes,
                                     std::uint64_t decay_period)
    : table(entries), regionShift(floorLog2(region_bytes)),
      mask(entries - 1), decayPeriod(decay_period)
{
    if (!isPowerOfTwo(entries))
        ccm_fatal("MAT entries must be a power of two: ", entries);
    if (!isPowerOfTwo(region_bytes))
        ccm_fatal("MAT region must be a power of two: ", region_bytes);
}

std::size_t
MemoryAccessTable::indexOf(Addr addr) const
{
    // XOR-fold the region number so regions a power-of-two apart
    // (common with page-aligned allocations) don't all alias.
    Addr region = addr >> regionShift;
    return (region ^ (region >> 10) ^ (region >> 20)) & mask;
}

Addr
MemoryAccessTable::tagOf(Addr addr) const
{
    return addr >> regionShift;
}

void
MemoryAccessTable::recordAccess(ByteAddr baddr)
{
    const Addr addr = baddr.value();
    Entry &e = table[indexOf(addr)];
    if (!e.valid) {
        e.valid = true;
        e.tag = tagOf(addr);
        e.count = 1;
    } else if (e.tag != tagOf(addr)) {
        // Collision hysteresis: a contender must out-access the
        // incumbent region before it takes the entry, so a hot
        // region's count isn't destroyed by stray aliasing.
        if (e.count > 0) {
            --e.count;
        } else {
            e.tag = tagOf(addr);
            e.count = 1;
        }
    } else if (e.count < counterMax) {
        ++e.count;
    }

    if (++sinceDecay >= decayPeriod) {
        sinceDecay = 0;
        for (auto &t : table)
            t.count >>= 1;
    }
}

std::uint32_t
MemoryAccessTable::countForRaw(Addr addr) const
{
    const Entry &e = table[indexOf(addr)];
    if (!e.valid || e.tag != tagOf(addr))
        return 0;
    return e.count;
}

std::uint32_t
MemoryAccessTable::countFor(ByteAddr addr) const
{
    return countForRaw(addr.value());
}

bool
MemoryAccessTable::shouldBypass(ByteAddr incoming_addr,
                                LineAddr victim_addr) const
{
    return countForRaw(incoming_addr.value()) <
           countForRaw(victim_addr.value());
}

void
MemoryAccessTable::clear()
{
    for (auto &e : table)
        e = Entry{};
    sinceDecay = 0;
}

} // namespace ccm
