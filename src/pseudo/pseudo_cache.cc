#include "pseudo/pseudo_cache.hh"

namespace ccm
{

namespace
{

/** Lines are identified by address >> offsetBits ("line tag"), which
 *  keeps tag+index together so a displaced line is unambiguous across
 *  its two candidate sets; the pseudo-associative MCT stores these
 *  line tags (tag+index), not plain tags. */
Tag
lineTagOf(const CacheGeometry &g, ByteAddr addr)
{
    return Tag{addr.value() >> g.offsetBits()};
}

/** Inverse of lineTagOf. */
LineAddr
lineAddrOfLineTag(const CacheGeometry &g, Tag line_tag)
{
    return LineAddr{line_tag.value() << g.offsetBits()};
}

} // namespace

Status
PseudoAssocCache::validate(const CacheGeometry &geometry)
{
    if (geometry.assoc() != 1)
        return Status::badConfig("pseudo-associative cache must be "
                                 "built on a direct-mapped geometry");
    if (geometry.numSets() < 2)
        return Status::badConfig(
            "pseudo-associative cache needs >= 2 sets");
    return Status::ok();
}

PseudoAssocCache::PseudoAssocCache(const CacheGeometry &geometry,
                                   bool use_mct_replacement,
                                   unsigned mct_tag_bits)
    : geom(geometry), useMct(use_mct_replacement),
      mct(geometry.numSets(), mct_tag_bits),
      lines(geometry.numSets())
{
    fatalIfError(validate(geometry));
}

std::size_t
PseudoAssocCache::secondaryIndex(std::size_t set) const
{
    return set ^ (geom.numSets() >> 1);
}

LineAddr
PseudoAssocCache::residentLineAddr(std::size_t set) const
{
    return lineAddrOfLineTag(geom, lines[set].tag);
}

bool
PseudoAssocCache::probe(ByteAddr addr) const
{
    Tag lt = lineTagOf(geom, addr);
    std::size_t p = geom.setOf(addr).value();
    std::size_t s = secondaryIndex(p);
    return (lines[p].valid && lines[p].tag == lt) ||
           (lines[s].valid && lines[s].tag == lt);
}

PseudoAccess
PseudoAssocCache::access(ByteAddr addr, bool is_store)
{
    ++tick;
    const Tag lt = lineTagOf(geom, addr);
    const std::size_t p = geom.setOf(addr).value();
    const std::size_t s = secondaryIndex(p);

    PseudoAccess out;

    if (lines[p].valid && lines[p].tag == lt) {
        lines[p].lastUse = tick;
        if (is_store)
            lines[p].dirty = true;
        ++nPrimary;
        out.kind = PseudoAccess::Kind::PrimaryHit;
        return out;
    }

    if (lines[s].valid && lines[s].tag == lt) {
        // Secondary hit: swap so the hot line lands in its primary
        // slot (its conflict bit travels with it).
        std::swap(lines[p], lines[s]);
        lines[p].lastUse = tick;
        if (is_store)
            lines[p].dirty = true;
        ++nSecondary;
        ++nSwaps;
        out.kind = PseudoAccess::Kind::SecondaryHit;
        return out;
    }

    // Miss.  Classify at the primary location before any update.
    ++nMisses;
    out.kind = PseudoAccess::Kind::Miss;
    const bool new_conflict =
        useMct && mct.isConflictMiss(SetIndex{p}, lt);
    out.wasConflict = new_conflict;

    CacheLine &lp = lines[p];
    CacheLine &ls = lines[s];

    auto install_primary = [&](bool set_dirty) {
        lp.valid = true;
        lp.tag = lt;
        lp.dirty = set_dirty;
        lp.conflictBit = new_conflict;
        lp.lastUse = tick;
    };

    auto record_eviction = [&](const CacheLine &victim,
                               std::size_t physical_set) {
        out.evictedValid = true;
        LineAddr victim_line = lineAddrOfLineTag(geom, victim.tag);
        out.evictedLineAddr = victim_line;
        out.evictedDirty = victim.dirty;
        // "The MCT entry at a particular index holds the tag of the
        // line most recently evicted from that index, even if the
        // line was in its secondary position": the line's index is
        // its *primary* index — that is where a later miss on it
        // looks — so a line evicted while sitting in its secondary
        // slot is still recorded at its primary entry.
        (void)physical_set;
        mct.recordEviction(geom.setOf(victim_line), victim.tag);
    };

    if (!lp.valid) {
        install_primary(is_store);
        return out;
    }
    if (!ls.valid) {
        // Demote the primary resident to the free secondary slot.
        ls = lp;
        install_primary(is_store);
        return out;
    }

    // Both candidates valid: pick a victim.
    bool evict_secondary;
    if (useMct && (lp.conflictBit != ls.conflictBit)) {
        // Exactly one is protected: evict the other and spend the
        // survivor's reprieve.
        evict_secondary = lp.conflictBit;
        (lp.conflictBit ? lp : ls).conflictBit = false;
        ++nOverrides;
    } else {
        evict_secondary = ls.lastUse < lp.lastUse;
    }

    if (evict_secondary) {
        record_eviction(ls, s);
        ls = lp;                    // demote primary resident
        install_primary(is_store);
    } else {
        record_eviction(lp, p);
        install_primary(is_store);  // secondary untouched
    }
    return out;
}

void
PseudoAssocCache::clear()
{
    for (auto &l : lines)
        l = CacheLine{};
    mct.clear();
    tick = 0;
    nPrimary = nSecondary = nMisses = nSwaps = nOverrides = 0;
}

} // namespace ccm
