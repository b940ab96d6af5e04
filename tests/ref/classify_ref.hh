/**
 * @file
 * A deliberately naive reference model of the whole classify step
 * and its three-C oracle (Hill, 1987), written from the definitions
 * for differential tests of classifyRun and runShardedClassify.
 *
 *  - The cache is one list of line numbers per set, most recent
 *    first; a hit moves the line to the front, a miss pushes it there
 *    and drops the back when the set holds more than assoc lines.
 *  - The MCT is RefMct (mct_ref.hh), written only with evicted tags.
 *  - The oracle is one fully associative LRU list of the cache's
 *    capacity in lines, plus an ever-seen set: a miss is compulsory
 *    if its line was never referenced, a conflict if the fully
 *    associative list held it, and capacity otherwise.
 *
 * Addresses are split by division, not by masks and shifts, and no
 * code is shared with the real cache, oracle or kernel.
 */

#ifndef CCM_TESTS_REF_CLASSIFY_REF_HH
#define CCM_TESTS_REF_CLASSIFY_REF_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <set>
#include <vector>

#include "mct_ref.hh"

namespace ccm::ref
{

/** A list of line numbers kept in LRU order, most recent first. */
class RefLruList
{
  public:
    explicit RefLruList(std::size_t capacity) : capacity(capacity) {}

    /**
     * Reference @p line: true on a hit.  On a miss the line is
     * inserted, and when the list overflows its least recently used
     * line is dropped into @p evicted (@p did_evict set).
     */
    bool
    touch(std::uint64_t line, bool &did_evict, std::uint64_t &evicted)
    {
        did_evict = false;
        auto it = std::find(lines.begin(), lines.end(), line);
        const bool hit = it != lines.end();
        if (hit)
            lines.erase(it);
        lines.push_front(line);
        if (lines.size() > capacity) {
            did_evict = true;
            evicted = lines.back();
            lines.pop_back();
        }
        return hit;
    }

  private:
    std::size_t capacity;
    std::list<std::uint64_t> lines;
};

/** Every count the model produces for one trace. */
struct RefClassifyTally
{
    std::uint64_t references = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t misses = 0;
    std::uint64_t mctConflicts = 0;   ///< misses the MCT called conflict
    std::uint64_t mctCapacities = 0;  ///< misses the MCT called capacity

    // Scorer cells: oracle verdict (compulsory counts as capacity)
    // against the MCT's.
    std::uint64_t conflictAsConflict = 0;
    std::uint64_t conflictAsCapacity = 0;
    std::uint64_t capacityAsConflict = 0;
    std::uint64_t capacityAsCapacity = 0;
    std::uint64_t compulsory = 0;

    // Per-set activity.
    std::vector<std::uint64_t> setMisses;
    std::vector<std::uint64_t> setEvictions;
    std::vector<std::uint64_t> setLookups;
    std::vector<std::uint64_t> setConflicts;
};

/** The classify step plus the oracle, one reference at a time. */
class RefClassifier
{
  public:
    RefClassifier(std::size_t cache_bytes, unsigned assoc,
                  unsigned line_bytes, unsigned tag_bits, unsigned depth)
        : lineBytes(line_bytes),
          numSets(cache_bytes / line_bytes / assoc),
          mct(numSets, tag_bits, depth),
          oracle(cache_bytes / line_bytes)
    {
        for (std::size_t s = 0; s < numSets; ++s)
            sets.emplace_back(assoc);
        tally.setMisses.assign(numSets, 0);
        tally.setEvictions.assign(numSets, 0);
    }

    /** One memory reference to byte address @p addr. */
    void
    reference(std::uint64_t addr, bool is_store)
    {
        ++tally.references;
        ++(is_store ? tally.stores : tally.loads);
        const std::uint64_t line = addr / lineBytes;
        const std::size_t set = line % numSets;

        bool fa_evict = false;
        std::uint64_t fa_victim = 0;
        const bool fa_hit = oracle.touch(line, fa_evict, fa_victim);
        const bool first_touch = seen.insert(line).second;

        bool evicted = false;
        std::uint64_t victim = 0;
        if (sets[set].touch(line, evicted, victim))
            return;

        ++tally.misses;
        ++tally.setMisses[set];
        const bool mct_conflict = mct.classify(set, line / numSets);
        if (evicted) {
            ++tally.setEvictions[set];
            mct.recordEviction(set, victim / numSets);
        }
        ++(mct_conflict ? tally.mctConflicts : tally.mctCapacities);

        const bool oracle_conflict = !first_touch && fa_hit;
        if (first_touch)
            ++tally.compulsory;
        if (oracle_conflict)
            ++(mct_conflict ? tally.conflictAsConflict
                            : tally.conflictAsCapacity);
        else
            ++(mct_conflict ? tally.capacityAsConflict
                            : tally.capacityAsCapacity);
    }

    /** The counts so far, with the MCT's per-set histograms. */
    RefClassifyTally
    result() const
    {
        RefClassifyTally t = tally;
        t.setLookups = mct.lookups;
        t.setConflicts = mct.conflicts;
        return t;
    }

  private:
    std::uint64_t lineBytes;
    std::size_t numSets;
    std::vector<RefLruList> sets;
    RefMct mct;
    RefLruList oracle;
    std::set<std::uint64_t> seen;
    RefClassifyTally tally;
};

} // namespace ccm::ref

#endif // CCM_TESTS_REF_CLASSIFY_REF_HH
