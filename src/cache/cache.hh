/**
 * @file
 * A functional set-associative LRU cache with line conflict bits and
 * explicit victim-selection/fill hooks.
 *
 * The cache is purely functional (tags only; no data payloads — the
 * simulation never needs values).  Timing lives in the hierarchy
 * layer, which decides *when* to call these methods.
 */

#ifndef CCM_CACHE_CACHE_HH
#define CCM_CACHE_CACHE_HH

#include <optional>
#include <utility>
#include <vector>

#include "cache/geometry.hh"
#include "cache/line.hh"
#include "common/stats.hh"

namespace ccm
{

/** What a fill pushed out of the cache. */
struct EvictedLine
{
    bool valid = false;      ///< false when the fill used an empty way
    LineAddr lineAddr{};     ///< line-aligned address of the victim
    bool dirty = false;
    bool conflictBit = false;
};

/** Result of a fill: the victim (if any). */
using FillResult = EvictedLine;

/** Functional set-associative LRU cache. */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geometry);

    const CacheGeometry &geometry() const { return geom; }

    /**
     * Look up @p addr without disturbing replacement state.
     * @return the line, or nullptr on miss
     */
    const CacheLine *
    probe(ByteAddr addr) const
    {
        const CacheLine *base =
            &lines[slotOf(geom.setOf(addr), WayIndex{0})];
        const Tag t = geom.tagOf(addr);
        for (unsigned w = 0; w < geom.assoc(); ++w) {
            if (base[w].valid && base[w].tag == t)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * Access @p addr: on a hit, update replacement state and the dirty
     * bit (for stores).
     *
     * @retval true hit
     * @retval false miss — caller decides whether/where to fill
     */
    bool
    access(ByteAddr addr, bool is_store)
    {
        ++tick;
        if (CacheLine *l = lookupMutable(addr)) {
            l->lastUse = tick;
            if (is_store)
                l->dirty = true;
            ++nHits;
            return true;
        }
        ++nMisses;
        ++setMisses_[geom.setOf(addr).value()];
        return false;
    }

    /**
     * The line a fill of @p addr would evict (replacement choice), or
     * nullptr if the set still has an invalid way.  Does not modify
     * any state; a subsequent fill() makes the same choice.
     */
    const CacheLine *victimFor(ByteAddr addr) const;

    /**
     * Install the line containing @p addr, evicting victimFor(addr).
     *
     * @param addr address being filled (any byte in the line)
     * @param conflict_bit value for the new line's conflict bit
     * @param is_store whether the triggering access was a store
     * @return description of the evicted line (valid=false if none)
     */
    FillResult fill(ByteAddr addr, bool conflict_bit, bool is_store);

    /**
     * Install into an explicit way of the set (used by the
     * pseudo-associative cache, which makes its own victim choice).
     */
    FillResult fillWay(ByteAddr addr, WayIndex way, bool conflict_bit,
                       bool is_store);

    /** Remove the line containing @p addr; @return it existed. */
    bool invalidate(ByteAddr addr);

    /** Direct set access for policy code (pseudo-assoc, tests). */
    CacheLine &lineAt(SetIndex set, WayIndex way);
    const CacheLine &lineAt(SetIndex set, WayIndex way) const;

    /** Line-aligned address of the line in (set, way). */
    LineAddr lineAddrAt(SetIndex set, WayIndex way) const;

    /** Number of valid lines currently resident (O(1)). */
    std::size_t occupancy() const { return nResident; }

    /** Clear all lines and statistics. */
    void clear();

    // Statistics ----------------------------------------------------
    Count hits() const { return nHits; }
    Count misses() const { return nMisses; }
    Count accesses() const { return nHits + nMisses; }
    Count fills() const { return nFills; }
    Count evictions() const { return nEvictions; }
    double missRate() const { return safeRatio(nMisses, accesses()); }

    /** Misses observed by access() in @p set. */
    Count
    setMisses(SetIndex set) const
    {
        return setMisses_[set.value()];
    }

    /** Evictions (valid-line replacements) in @p set. */
    Count
    setEvictions(SetIndex set) const
    {
        return setEvictions_[set.value()];
    }

    /** Whole per-set miss histogram, indexed by set. */
    const std::vector<Count> &setMissHistogram() const
    {
        return setMisses_;
    }

    /** Whole per-set eviction histogram, indexed by set. */
    const std::vector<Count> &setEvictionHistogram() const
    {
        return setEvictions_;
    }

  private:
    /** probe()'s mutable form: the same line frame, writable. */
    CacheLine *
    lookupMutable(ByteAddr addr)
    {
        return const_cast<CacheLine *>(std::as_const(*this).probe(addr));
    }

    WayIndex chooseVictimWay(SetIndex set) const;

    /** Flat index of (set, way) in the set-major line array. */
    std::size_t
    slotOf(SetIndex set, WayIndex way) const
    {
        return set.value() * geom.assoc() + way.value();
    }

    CacheGeometry geom;
    std::vector<CacheLine> lines;   ///< sets_ * assoc_, set-major
    Count tick = 0;                 ///< logical access clock for LRU
    Count nHits = 0;
    Count nMisses = 0;
    Count nFills = 0;
    Count nEvictions = 0;
    /** Valid-line count, maintained by fillWay/invalidate/clear. */
    std::size_t nResident = 0;
    std::vector<Count> setMisses_;    ///< per-set miss histogram
    std::vector<Count> setEvictions_; ///< per-set eviction histogram
};

} // namespace ccm

#endif // CCM_CACHE_CACHE_HH
