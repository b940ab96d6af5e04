/**
 * @file
 * Pseudo-associative (column-associative) cache — Agarwal & Pudar,
 * applied with MCT-guided replacement in paper §5.4.
 *
 * The cache is physically direct-mapped.  An address's *primary*
 * location is its normal set; its *secondary* location is the set with
 * the top index bit flipped.  Primary hits cost the direct-mapped hit
 * time; secondary hits cost extra and trigger a swap of the two lines
 * so the hot line moves to its primary slot.
 *
 * Replacement on a miss considers both candidate lines.  The paper's
 * MCT modification: the MCT entry at the *primary* index holds the tag
 * of the line most recently evicted from that index (even from the
 * secondary position); a new line's conflict bit is set only when it
 * matches at its primary location.  When exactly one of the two
 * eviction candidates has its conflict bit set, the *other* is evicted
 * and the survivor's bit is cleared (a one-shot reprieve); when both
 * are set, plain LRU picks and the survivor keeps its bit.
 */

#ifndef CCM_PSEUDO_PSEUDO_CACHE_HH
#define CCM_PSEUDO_PSEUDO_CACHE_HH

#include <vector>

#include "cache/geometry.hh"
#include "cache/line.hh"
#include "common/stats.hh"
#include "mct/mct.hh"

namespace ccm
{

/** Outcome of one pseudo-associative access. */
struct PseudoAccess
{
    enum class Kind
    {
        PrimaryHit,
        SecondaryHit,   ///< implies a line swap
        Miss,
    };
    Kind kind = Kind::Miss;
    /** For a miss: whether the MCT classified it as a conflict. */
    bool wasConflict = false;
    /** For a miss: the evicted line, if any. */
    bool evictedValid = false;
    LineAddr evictedLineAddr{};
    bool evictedDirty = false;
};

/** Column-associative cache with optional MCT-guided replacement. */
class PseudoAssocCache
{
  public:
    /**
     * @param geometry direct-mapped geometry (assoc must be 1)
     * @param use_mct_replacement false = baseline pseudo-associative
     *        cache (LRU between the two candidates)
     * @param mct_tag_bits stored-tag width (0 = full)
     */
    PseudoAssocCache(const CacheGeometry &geometry,
                     bool use_mct_replacement,
                     unsigned mct_tag_bits = 0);

    /** Check the geometry the constructor would reject. */
    static Status validate(const CacheGeometry &geometry);

    /**
     * Access @p addr, filling on a miss (this cache owns its fill
     * policy because placement and replacement are intertwined).
     */
    PseudoAccess access(ByteAddr addr, bool is_store);

    /** Probe only (no state change): is the line resident? */
    bool probe(ByteAddr addr) const;

    const CacheGeometry &geometry() const { return geom; }

    // Statistics -----------------------------------------------------
    Count primaryHits() const { return nPrimary; }
    Count secondaryHits() const { return nSecondary; }
    Count misses() const { return nMisses; }
    Count swaps() const { return nSwaps; }
    Count accesses() const { return nPrimary + nSecondary + nMisses; }
    double missRate() const { return safeRatio(nMisses, accesses()); }
    /** Misses where the conflict bit vetoed the LRU choice. */
    Count replacementOverrides() const { return nOverrides; }

    void clear();

  private:
    std::size_t secondaryIndex(std::size_t set) const;
    /** Line-aligned address of the line stored in @p set. */
    LineAddr residentLineAddr(std::size_t set) const;

    CacheGeometry geom;
    bool useMct;
    MissClassificationTable mct;
    std::vector<CacheLine> lines;   ///< one line per set (DM)
    Count tick = 0;

    Count nPrimary = 0;
    Count nSecondary = 0;
    Count nMisses = 0;
    Count nSwaps = 0;
    Count nOverrides = 0;
};

} // namespace ccm

#endif // CCM_PSEUDO_PSEUDO_CACHE_HH
