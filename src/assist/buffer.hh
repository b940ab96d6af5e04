/**
 * @file
 * The cache-assist buffer (paper §4): a small fully-associative
 * buffer that serves, depending on configuration, as a victim buffer,
 * prefetch buffer, cache-bypass buffer — or all three at once as the
 * Adaptive Miss Buffer.
 *
 * "In most cases it will have eight fully-associative entries and have
 * two read and two write ports.  It can produce a word to the CPU in
 * one cycle.  A full cache line read or write requires a port for two
 * cycles.  A line swap with the data cache requires two ports for two
 * cycles.  The buffer is only accessed after the data cache misses,
 * but can provide data with a single additional cycle of latency."
 *
 * Each entry remembers *how* it entered (victim / prefetch / bypass)
 * because the AMB treats hits differently per source, and entries can
 * transition (a prefetched line re-marked as an exclusion line).
 */

#ifndef CCM_ASSIST_BUFFER_HH
#define CCM_ASSIST_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_types.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace ccm
{

/** How a line entered the assist buffer. */
enum class BufSource : std::uint8_t
{
    Victim,    ///< evicted from the data cache
    Prefetch,  ///< brought in speculatively by the prefetcher
    Bypass,    ///< excluded from the data cache
};

/**
 * Buffer replacement organization (paper §5.1): a plain FIFO evicts
 * in insertion order; the paper's victim cache behaves as "a FIFO
 * from which entries can be taken out of the middle", which "provides
 * LRU eviction because lines are consumed out of the victim cache as
 * soon as they are accessed" — modelled here as Lru.
 */
enum class BufRepl : std::uint8_t
{
    Lru,
    Fifo,
};

/** One assist-buffer entry. */
struct BufEntry
{
    LineAddr lineAddr = invalidLineAddr;
    bool valid = false;
    bool dirty = false;
    BufSource source = BufSource::Victim;
    /** The line's MCT classification when it entered the buffer. */
    bool conflictBit = false;
    /** Cycle at which the data is actually present (prefetches). */
    Cycle ready = 0;
    /** True once the entry has served at least one hit. */
    bool used = false;
    Count lastUse = 0;     ///< LRU stamp
    Count insertedAt = 0;  ///< FIFO stamp
};

/** What an insertion pushed out. */
struct BufEvicted
{
    bool valid = false;
    LineAddr lineAddr{};
    bool dirty = false;
    BufSource source = BufSource::Victim;
    bool wasUsed = false;
};

/** Fully-associative LRU assist buffer with per-source accounting. */
class AssistBuffer
{
  public:
    explicit AssistBuffer(unsigned num_entries,
                          BufRepl repl = BufRepl::Lru);

    /** Check the parameters the constructor would reject. */
    static Status validate(unsigned num_entries);

    /** Look up a line; no replacement-state update. */
    BufEntry *find(LineAddr line_addr);

    /**
     * Record a hit on @p e: LRU update, per-source hit counters,
     * marks the entry used.
     */
    void recordHit(BufEntry &e);

    /**
     * Insert a line (must not already be resident), evicting LRU if
     * full.  Counts wasted prefetches (prefetched entries evicted
     * before any use).
     */
    BufEvicted insert(LineAddr line_addr, BufSource source,
                      bool conflict_bit, bool dirty, Cycle ready);

    /** Remove a line (e.g. promoted into the cache). */
    bool erase(LineAddr line_addr);

    /** Invalidate everything (statistics kept). */
    void flush();

    unsigned entries() const { return unsigned(slots.size()); }
    unsigned occupancy() const;

    // Accounting ----------------------------------------------------
    Count fills() const { return nFills; }
    Count hits(BufSource s) const { return nHits[idx(s)]; }
    Count totalHits() const;
    Count insertions(BufSource s) const { return nIns[idx(s)]; }
    /** Prefetched entries evicted before serving any hit. */
    Count wastedPrefetches() const { return nWastedPref; }

    void clearStats();

  private:
    static std::size_t idx(BufSource s) { return std::size_t(s); }
    BufEntry *victimSlot();

    std::vector<BufEntry> slots;
    BufRepl repl;
    Count tick = 0;

    Count nFills = 0;
    Count nHits[3] = {};
    Count nIns[3] = {};
    Count nWastedPref = 0;
};

} // namespace ccm

#endif // CCM_ASSIST_BUFFER_HH
