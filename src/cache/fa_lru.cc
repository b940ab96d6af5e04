#include "cache/fa_lru.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

namespace
{

/**
 * Smallest power of two >= 4 * cap (and >= 8): load factor <= 1/4,
 * keeping probe chains near one slot and backward shifts rare.  The
 * capacities this class is built with (a cache's line count) make
 * the table a few KB; trading that for shorter chains is free.
 */
std::size_t
tableSizeFor(std::size_t cap)
{
    std::size_t n = 8;
    while (n < cap * 4)
        n <<= 1;
    return n;
}

} // namespace

FaLru::FaLru(std::size_t num_lines)
    : cap(num_lines), slotMask(0), hashShift(0)
{
    if (num_lines == 0)
        ccm_fatal("FaLru capacity must be > 0");
    if (num_lines >= nil)
        ccm_fatal("FaLru capacity ", num_lines,
                  " exceeds the 32-bit node index space");

    nodes.resize(cap);
    const std::size_t table = tableSizeFor(cap);
    slots.assign(table, 0);
    slotMask = table - 1;
    hashShift = 64 - floorLog2(table);

    // Thread the free list through next.
    for (std::size_t i = 0; i + 1 < cap; ++i)
        nodes[i].next = static_cast<std::uint32_t>(i + 1);
    nodes[cap - 1].next = nil;
}

std::size_t
FaLru::findSlot(Addr line) const
{
    std::size_t i = slotOf(line);
    while (slots[i] != 0 && nodes[slots[i] - 1].line != line)
        i = (i + 1) & slotMask;
    return i;
}

void
FaLru::tableErase(Addr line)
{
    const std::size_t hole = findSlot(line);
    if (slots[hole] != 0)
        tableEraseAt(hole);
}

void
FaLru::tableEraseAt(std::size_t hole)
{
    slots[hole] = 0;

    // Backward-shift deletion: walk the probe chain after the hole
    // and pull back every entry whose home slot lies at or before the
    // hole, so lookups never need tombstones.
    std::size_t i = (hole + 1) & slotMask;
    while (slots[i] != 0) {
        const std::size_t home = slotOf(nodes[slots[i] - 1].line);
        if (((i - home) & slotMask) >= ((i - hole) & slotMask)) {
            slots[hole] = slots[i];
            slots[i] = 0;
            hole = i;
        }
        i = (i + 1) & slotMask;
    }
}

void
FaLru::listUnlink(std::uint32_t idx)
{
    Node &n = nodes[idx];
    if (n.prev != nil)
        nodes[n.prev].next = n.next;
    else
        head = n.next;
    if (n.next != nil)
        nodes[n.next].prev = n.prev;
    else
        tail = n.prev;
}

void
FaLru::listPushFront(std::uint32_t idx)
{
    Node &n = nodes[idx];
    n.prev = nil;
    n.next = head;
    if (head != nil)
        nodes[head].prev = idx;
    head = idx;
    if (tail == nil)
        tail = idx;
}

bool
FaLru::contains(LineAddr line) const
{
    return slots[findSlot(line.value())] != 0;
}

bool
FaLru::touch(LineAddr line)
{
    const std::uint32_t slot = slots[findSlot(line.value())];
    if (slot == 0)
        return false;
    const std::uint32_t idx = slot - 1;
    if (head != idx) {
        listUnlink(idx);
        listPushFront(idx);
    }
    return true;
}

std::optional<LineAddr>
FaLru::insert(LineAddr line)
{
    std::size_t slot = findSlot(line.value());
    if (slots[slot] != 0)
        ccm_panic("FaLru::insert of resident line");

    std::optional<LineAddr> evicted;
    std::uint32_t idx;
    if (size_ == cap) {
        // Recycle the LRU node in place.  The victim's slot is
        // located while its node still holds the victim's line; the
        // node is then rewritten and the hole shift-closed last, so
        // the shift sees only consistent entries.  The table briefly
        // holds cap + 1 entries (the 1/4 load factor leaves ample
        // room).
        idx = tail;
        const Addr victim = nodes[idx].line;
        const std::size_t vslot = findSlot(victim);
        listUnlink(idx);
        evicted = LineAddr{victim};
        nodes[idx].line = line.value();
        slots[slot] = idx + 1;
        tableEraseAt(vslot);
    } else {
        idx = freeHead;
        freeHead = nodes[idx].next;
        ++size_;
        nodes[idx].line = line.value();
        slots[slot] = idx + 1;
    }

    listPushFront(idx);
    return evicted;
}

bool
FaLru::touchOrInsert(LineAddr line)
{
    std::size_t slot = findSlot(line.value());
    if (slots[slot] != 0) {
        const std::uint32_t idx = slots[slot] - 1;
        if (head != idx) {
            listUnlink(idx);
            listPushFront(idx);
        }
        return true;
    }

    std::uint32_t idx;
    if (size_ == cap) {
        // Same recycle-in-place shape as insert(): locate the
        // victim's slot first, rewrite the node, shift-close last.
        idx = tail;
        const std::size_t vslot = findSlot(nodes[idx].line);
        listUnlink(idx);
        nodes[idx].line = line.value();
        slots[slot] = idx + 1;
        tableEraseAt(vslot);
    } else {
        idx = freeHead;
        freeHead = nodes[idx].next;
        ++size_;
        nodes[idx].line = line.value();
        slots[slot] = idx + 1;
    }

    listPushFront(idx);
    return false;
}

bool
FaLru::erase(LineAddr line)
{
    const std::uint32_t slot = slots[findSlot(line.value())];
    if (slot == 0)
        return false;
    const std::uint32_t idx = slot - 1;
    tableErase(line.value());
    listUnlink(idx);
    nodes[idx].next = freeHead;
    freeHead = idx;
    --size_;
    return true;
}

std::optional<LineAddr>
FaLru::lruLine() const
{
    if (tail == nil)
        return std::nullopt;
    return LineAddr{nodes[tail].line};
}

void
FaLru::clear()
{
    std::fill(slots.begin(), slots.end(), 0);
    size_ = 0;
    head = tail = nil;
    for (std::size_t i = 0; i + 1 < cap; ++i)
        nodes[i].next = static_cast<std::uint32_t>(i + 1);
    nodes[cap - 1].next = nil;
    freeHead = 0;
}

} // namespace ccm
