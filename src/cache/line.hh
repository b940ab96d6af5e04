/**
 * @file
 * Per-line cache state, including the paper's one-bit conflict
 * annotation that preserves a line's miss classification while it
 * resides in the cache (paper §3).
 */

#ifndef CCM_CACHE_LINE_HH
#define CCM_CACHE_LINE_HH

#include "common/addr_types.hh"
#include "common/types.hh"

namespace ccm
{

/** State of one cache line frame. */
struct CacheLine
{
    Tag tag{};
    bool valid = false;
    bool dirty = false;
    /**
     * Conflict bit (paper §3): set iff this line was brought into the
     * cache by a miss the MCT classified as a conflict miss.
     */
    bool conflictBit = false;
    /** Global timestamp of last access; drives LRU. */
    Count lastUse = 0;
};

} // namespace ccm

#endif // CCM_CACHE_LINE_HH
