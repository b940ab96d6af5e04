/**
 * @file
 * A deliberately naive reference model of the Miss Classification
 * Table, written straight from the paper's description (§3) and its
 * shadow-directory extension (§2), for differential tests.
 *
 * Each set is a deque of stored tags, most recent eviction first.
 * An eviction pushes the (truncated) tag to the front, pulling an
 * equal tag forward instead of duplicating it, and the deque is cut
 * to the table's depth.  A miss is a conflict iff its truncated tag
 * is anywhere in the set's deque.  No slot arrays, no valid bits, no
 * masks shared with the real table.
 */

#ifndef CCM_TESTS_REF_MCT_REF_HH
#define CCM_TESTS_REF_MCT_REF_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace ccm::ref
{

class RefMct
{
  public:
    RefMct(std::size_t num_sets, unsigned tag_bits, unsigned depth)
        : tagBits(tag_bits), depth(depth), rows(num_sets),
          lookups(num_sets, 0), conflicts(num_sets, 0)
    {
    }

    /** The low @c tagBits bits of @p tag; all of it for 0 or 64. */
    std::uint64_t
    truncate(std::uint64_t tag) const
    {
        if (tagBits == 0 || tagBits >= 64)
            return tag;
        return tag % (std::uint64_t{1} << tagBits);
    }

    /** 1-based position of @p tag in the set's deque, 0 if absent. */
    unsigned
    matchDepth(std::size_t set, std::uint64_t tag) const
    {
        const std::deque<std::uint64_t> &row = rows[set];
        auto it = std::find(row.begin(), row.end(), truncate(tag));
        if (it == row.end())
            return 0;
        return static_cast<unsigned>(it - row.begin()) + 1;
    }

    /** Counted lookup: true for a conflict verdict. */
    bool
    classify(std::size_t set, std::uint64_t tag)
    {
        const bool conflict = matchDepth(set, tag) != 0;
        ++lookups[set];
        if (conflict)
            ++conflicts[set];
        return conflict;
    }

    void
    recordEviction(std::size_t set, std::uint64_t tag)
    {
        std::deque<std::uint64_t> &row = rows[set];
        const std::uint64_t t = truncate(tag);
        auto it = std::find(row.begin(), row.end(), t);
        if (it != row.end())
            row.erase(it);
        row.push_front(t);
        if (row.size() > depth)
            row.pop_back();
    }

    /** Most recent stored tag of @p set; @p valid false when none. */
    std::uint64_t
    front(std::size_t set, bool &valid) const
    {
        valid = !rows[set].empty();
        return valid ? rows[set].front() : 0;
    }

    /** depth tags + one valid bit each, per set. */
    std::size_t
    storageBits() const
    {
        const std::size_t tag_width = tagBits == 0 ? 64 : tagBits;
        return rows.size() * depth * (tag_width + 1);
    }

    unsigned tagBits;
    unsigned depth;
    std::vector<std::deque<std::uint64_t>> rows;
    std::vector<std::uint64_t> lookups;
    std::vector<std::uint64_t> conflicts;
};

} // namespace ccm::ref

#endif // CCM_TESTS_REF_MCT_REF_HH
