#include "exclude/tyson.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

PcMissTable::PcMissTable(std::size_t entries)
    : table(entries), mask(entries - 1)
{
    if (!isPowerOfTwo(entries))
        ccm_fatal("PC table entries must be a power of two: ",
                  entries);
}

std::size_t
PcMissTable::indexOf(Addr pc) const
{
    Addr word = pc >> 2;
    // Fold so call-sites a power-of-two apart don't systematically
    // alias (same rationale as the MAT's index fold).
    return (word ^ (word >> 10) ^ (word >> 20)) & mask;
}

void
PcMissTable::recordOutcome(ByteAddr bpc, bool missed)
{
    const Addr pc = bpc.value();
    Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != tagOf(pc)) {
        e.valid = true;
        e.tag = tagOf(pc);
        e.counter = missed ? 2 : 1;
        return;
    }
    if (missed) {
        if (e.counter < 3)
            ++e.counter;
    } else {
        if (e.counter > 0)
            --e.counter;
    }
}

bool
PcMissTable::shouldBypass(ByteAddr bpc) const
{
    const Addr pc = bpc.value();
    const Entry &e = table[indexOf(pc)];
    return e.valid && e.tag == tagOf(pc) && e.counter == 3;
}

std::uint8_t
PcMissTable::counterFor(ByteAddr bpc) const
{
    const Addr pc = bpc.value();
    const Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != tagOf(pc))
        return 0;
    return e.counter;
}

void
PcMissTable::clear()
{
    for (auto &e : table)
        e = Entry{};
}

} // namespace ccm
