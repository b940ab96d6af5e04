/**
 * @file
 * The Miss Classification Table — the paper's primary contribution.
 *
 * One row per cache set, holding (part of) the tags of the lines most
 * recently evicted from that set.  A miss whose tag matches a stored
 * tag is classified as a conflict miss: the line would have hit in a
 * slightly more associative cache (a conflict "near-miss").
 *
 * The table is accessed only on cache misses and is therefore off the
 * cache's critical path.  Storing only the low @c tagBits bits of the
 * tag trades a little accuracy (false conflict matches) for storage;
 * the paper shows 8-12 bits is enough (Figure 2), and the Fig. 2 bench
 * in this repo sweeps exactly that parameter.
 *
 * The paper's MCT keeps one tag per set.  A deeper row is Stone's
 * shadow directory (attributed to Pomerene, paper §2), which the
 * paper names as an extension it does not pursue ("we could store
 * multiple evicted tags per set to identify higher-order conflict
 * misses", §3); bench/ablation_mct_depth sweeps it.  Each row holds
 * up to @c depth tags, most recent eviction first, and a miss matching
 * any of them is a conflict miss.
 */

#ifndef CCM_MCT_MCT_HH
#define CCM_MCT_MCT_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "common/addr_types.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "mct/miss_class.hh"

namespace ccm
{

/**
 * One MCT lookup, as seen by an attached classification event hook
 * (see MissClassificationTable::setLookupHook).  Oracle agreement is
 * not known at this layer; observers that also watch the oracle (the
 * obs-layer event trace) annotate it afterwards.
 */
struct MctLookupEvent
{
    SetIndex set{};
    /** Stored (possibly truncated) tag of the entry consulted. */
    Addr storedTag = 0;
    bool storedValid = false;
    /** Full incoming tag of the missing line. */
    Tag incomingTag{};
    MissClass verdict = MissClass::Capacity;
};

/**
 * Observer invoked on every classify() call.  Off by default; cost
 * when unset is one branch on an empty std::function.
 */
using MctLookupHook = std::function<void(const MctLookupEvent &)>;

/** Per-set table of the most recently evicted tags. */
class MissClassificationTable
{
  public:
    /**
     * @param num_sets one row per cache set
     * @param tag_bits how many low-order tag bits to store;
     *        0 means store the full tag
     * @param depth evicted tags remembered per set (>= 1); 1 is the
     *        paper's MCT
     */
    explicit MissClassificationTable(std::size_t num_sets,
                                     unsigned tag_bits = 0,
                                     unsigned depth = 1);

    /** Check the parameters the constructor would reject. */
    static Status validate(std::size_t num_sets, unsigned tag_bits,
                           unsigned depth = 1);

    /**
     * Classify a miss to @p set with full tag @p tag: conflict iff
     * any remembered tag matches.
     *
     * Pure lookup; does not modify the table.  Call on every cache
     * miss before the fill updates the table via recordEviction().
     */
    MissClass
    classify(SetIndex set, Tag tag) const
    {
        const bool conflict = matchDepth(set, tag) != 0;
        const MissClass verdict =
            conflict ? MissClass::Conflict : MissClass::Capacity;
        ++setLookups_[set.value()];
        if (conflict)
            ++setConflicts_[set.value()];
        if (hook_) {
            const Slot &front = row(set)[0];
            hook_({set, front.tag, front.valid, tag, verdict});
        }
        return verdict;
    }

    /** Convenience: classify(set, tag) == Conflict. */
    bool
    isConflictMiss(SetIndex set, Tag tag) const
    {
        return classify(set, tag) == MissClass::Conflict;
    }

    /**
     * Depth (1-based) at which @p tag matches, or 0 for no match —
     * i.e. how many extra ways would have been needed.  Unlike
     * classify(), not counted and not observed.
     */
    unsigned
    matchDepth(SetIndex set, Tag tag) const
    {
        const Slot *r = row(set);
        const Addr t = maskTag(tag);
        for (unsigned d = 0; d < depth_; ++d) {
            if (r[d].valid && r[d].tag == t)
                return d + 1;
        }
        return 0;
    }

    /**
     * Record that the line with full tag @p tag was evicted from
     * @p set (or, for the exclusion policy's modification in §5.3,
     * that it was diverted to the bypass buffer instead of being
     * cached — same table update either way).  The tag becomes the
     * row's most recent; if the row already holds it, it moves to
     * the front, otherwise the oldest tag drops out.
     */
    void
    recordEviction(SetIndex set, Tag tag)
    {
        Slot *r = row(set);
        const Addr t = maskTag(tag);
        unsigned d = 0;
        while (d + 1 < depth_ && !(r[d].valid && r[d].tag == t))
            ++d;
        for (; d > 0; --d)
            r[d] = r[d - 1];
        r[0] = Slot{t, true};
    }

    /** @return the stored-tag width in bits (0 = full tag). */
    unsigned tagBits() const { return tagBits_; }

    std::size_t numSets() const { return setLookups_.size(); }

    /**
     * Storage cost in bits: stored tag bits + a valid bit, per slot.
     * (The optional per-line conflict bit is accounted by the cache.)
     */
    std::size_t
    storageBits() const
    {
        unsigned per_slot = (tagBits_ == 0 ? 64u : tagBits_) + 1u;
        return slots.size() * per_slot;
    }

    /** Forget everything (entries, histograms; the hook stays). */
    void clear();

    // Observability --------------------------------------------------

    /**
     * Attach @p hook, called on every classify() with the set's most
     * recent eviction (the whole row at depth 1) and the verdict.
     * Pass nullptr/empty to detach.  Intended for the obs-layer event
     * trace; keep the callback cheap.
     */
    void setLookupHook(MctLookupHook hook) { hook_ = std::move(hook); }

    /** Lookups (classify calls) per set, indexed by set. */
    const std::vector<Count> &setLookupHistogram() const
    {
        return setLookups_;
    }

    /** Conflict verdicts per set, indexed by set. */
    const std::vector<Count> &setConflictHistogram() const
    {
        return setConflicts_;
    }

  private:
    struct Slot
    {
        /** Truncated-tag domain: low maskTag() bits of a full Tag. */
        Addr tag = 0;
        bool valid = false;
    };

    Addr maskTag(Tag tag) const { return tag.value() & tagMask; }

    Slot *row(SetIndex set) { return &slots[set.value() * depth_]; }
    const Slot *
    row(SetIndex set) const
    {
        return &slots[set.value() * depth_];
    }

    unsigned tagBits_;
    unsigned depth_;
    /** All ones for the full tag. */
    Addr tagMask;
    /** sets x depth, row-major; index 0 = most recent eviction. */
    std::vector<Slot> slots;
    MctLookupHook hook_;
    // Lookup-side statistics; mutable because classify() is logically
    // const (a pure lookup) but still counts itself.
    mutable std::vector<Count> setLookups_;
    mutable std::vector<Count> setConflicts_;
};

} // namespace ccm

#endif // CCM_MCT_MCT_HH
