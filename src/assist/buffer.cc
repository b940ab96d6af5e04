#include "assist/buffer.hh"

#include "common/log.hh"

namespace ccm
{

Status
AssistBuffer::validate(unsigned num_entries)
{
    if (num_entries == 0)
        return Status::badConfig("assist buffer needs at least one entry");
    return Status::ok();
}

AssistBuffer::AssistBuffer(unsigned num_entries, BufRepl repl_)
    : slots(num_entries), repl(repl_)
{
    fatalIfError(validate(num_entries));
}

BufEntry *
AssistBuffer::find(LineAddr line_addr)
{
    for (auto &e : slots) {
        if (e.valid && e.lineAddr == line_addr)
            return &e;
    }
    return nullptr;
}

void
AssistBuffer::recordHit(BufEntry &e)
{
    e.lastUse = ++tick;
    e.used = true;
    ++nHits[idx(e.source)];
}

BufEntry *
AssistBuffer::victimSlot()
{
    BufEntry *victim = nullptr;
    for (auto &e : slots) {
        if (!e.valid)
            return &e;
        Count key = repl == BufRepl::Lru ? e.lastUse : e.insertedAt;
        Count best = !victim ? 0
                             : (repl == BufRepl::Lru
                                    ? victim->lastUse
                                    : victim->insertedAt);
        if (!victim || key < best)
            victim = &e;
    }
    return victim;
}

BufEvicted
AssistBuffer::insert(LineAddr line_addr, BufSource source,
                     bool conflict_bit, bool dirty, Cycle ready)
{
    if (find(line_addr))
        ccm_panic("AssistBuffer::insert of resident line");

    BufEntry *slot = victimSlot();
    BufEvicted out;
    if (slot->valid) {
        out.valid = true;
        out.lineAddr = slot->lineAddr;
        out.dirty = slot->dirty;
        out.source = slot->source;
        out.wasUsed = slot->used;
        if (slot->source == BufSource::Prefetch && !slot->used)
            ++nWastedPref;
    }

    slot->lineAddr = line_addr;
    slot->valid = true;
    slot->dirty = dirty;
    slot->source = source;
    slot->conflictBit = conflict_bit;
    slot->ready = ready;
    slot->used = false;
    slot->lastUse = ++tick;
    slot->insertedAt = tick;

    ++nFills;
    ++nIns[idx(source)];
    return out;
}

bool
AssistBuffer::erase(LineAddr line_addr)
{
    BufEntry *e = find(line_addr);
    if (!e)
        return false;
    e->valid = false;
    return true;
}

void
AssistBuffer::flush()
{
    for (auto &e : slots)
        e.valid = false;
}

unsigned
AssistBuffer::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : slots)
        n += e.valid ? 1 : 0;
    return n;
}

Count
AssistBuffer::totalHits() const
{
    return nHits[0] + nHits[1] + nHits[2];
}

void
AssistBuffer::clearStats()
{
    nFills = 0;
    nHits[0] = nHits[1] = nHits[2] = 0;
    nIns[0] = nIns[1] = nIns[2] = 0;
    nWastedPref = 0;
}

} // namespace ccm
