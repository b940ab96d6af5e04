/**
 * @file
 * Configuration of the simulated memory system: the paper's §4
 * machine by default, plus the policy knobs of every architecture
 * studied in §5.
 */

#ifndef CCM_HIERARCHY_CONFIG_HH
#define CCM_HIERARCHY_CONFIG_HH

#include <cstddef>

#include "assist/buffer.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "mct/miss_class.hh"

namespace ccm
{

/** Which cache-assist architecture the memory system runs. */
enum class AssistMode
{
    None,            ///< plain L1/L2/memory (baseline)
    VictimCache,     ///< §5.1
    PrefetchBuffer,  ///< §5.2 next-line prefetcher
    BypassBuffer,    ///< §5.3 cache exclusion
    Amb,             ///< §5.5 adaptive miss buffer
    PseudoAssoc,     ///< §5.4 column-associative L1
};

/** Victim-cache policy (§5.1, Figure 3 / Table 1). */
struct VictimPolicy
{
    /** Don't swap on a victim hit when the filter says conflict. */
    bool filterSwaps = false;
    /** Don't fill the victim buffer when the filter says capacity. */
    bool filterFills = false;
    /** Paper uses the most liberal filter here. */
    ConflictFilter filter = ConflictFilter::Or;
};

/** Which prefetch engine drives the prefetch buffer. */
enum class PrefetchKind
{
    NextLine,  ///< §5.2's simple next-line prefetcher
    Rpt,       ///< Chen & Baer reference prediction table (examined
               ///< as the comparator in §5.2, results not shown)
};

/** Prefetch policy (§5.2, Figure 4). */
struct PrefetchPolicy
{
    PrefetchKind kind = PrefetchKind::NextLine;
    /** Suppress the prefetch when the filter says conflict. */
    bool filtered = false;
    ConflictFilter filter = ConflictFilter::Out;
    /** RPT table entries (power of two). */
    std::size_t rptEntries = 512;
};

/** Exclusion algorithm selector (§5.3, Figure 5). */
enum class ExcludeAlgo
{
    Mat,              ///< Johnson & Hwu memory access table
    TysonPc,          ///< Tyson et al. PC-indexed miss predictor
    Capacity,         ///< bypass MCT-capacity misses (paper's best)
    CapacityHistory,  ///< bypass regions with capacity-miss history
    Conflict,         ///< bypass MCT-conflict misses
    ConflictHistory,  ///< bypass regions with conflict-miss history
};

/** Cache-exclusion policy. */
struct ExcludePolicy
{
    ExcludeAlgo algo = ExcludeAlgo::Capacity;
    /**
     * §5.3 modification: when a line is diverted to the bypass
     * buffer, install its tag in the MCT entry of the set it would
     * have occupied, so a later miss on it can classify as conflict.
     */
    bool mctInsertFix = true;
};

/** Adaptive-miss-buffer policy (§5.5, Figures 6/7). */
struct AmbPolicy
{
    bool victimConflicts = false;   ///< victim-cache conflict misses
    bool prefetchCapacity = false;  ///< next-line prefetch capacity
    bool excludeCapacity = false;   ///< bypass capacity misses
};

/** Full memory-system configuration (defaults = paper §4). */
struct MemSysConfig
{
    // L1 data cache
    std::size_t l1Bytes = 16 * 1024;
    unsigned l1Assoc = 1;
    unsigned lineBytes = 64;
    unsigned l1Banks = 8;
    Cycle l1HitLatency = 1;

    // L2 unified cache and main memory
    std::size_t l2Bytes = 1024 * 1024;
    unsigned l2Assoc = 2;
    Cycle l2Latency = 20;    ///< from the processor, uncontended
    Cycle memLatency = 100;  ///< from the processor, uncontended

    /** Outstanding misses; beyond this demand misses stall and
     *  prefetches are discarded. */
    unsigned mshrs = 16;

    /** L1<->L2 bus occupancy per line transfer (64 B over a 16 B-wide
     *  bus).  Figure 4's speedups use a slower bus than the rest of
     *  the paper. */
    Cycle busCyclesPerTransfer = 4;

    // Assist buffer (victim/prefetch/bypass/AMB)
    unsigned bufEntries = 8;
    /** LRU ("FIFO with middle removal", §5.1) or plain FIFO. */
    BufRepl bufRepl = BufRepl::Lru;
    Cycle bufHitLatency = 1;      ///< extra cycle after the L1 miss
    unsigned bufReadPorts = 2;
    unsigned bufWritePorts = 2;

    // Miss classification table
    unsigned mctTagBits = 0;      ///< 0 = full tag (§5 default)

    // Pseudo-associative cache (§5.4)
    Cycle pseudoSecondaryPenalty = 1;  ///< extra cycles, secondary hit
    bool pseudoUseMct = true;

    // Architecture selection
    AssistMode mode = AssistMode::None;
    VictimPolicy victim;
    PrefetchPolicy prefetch;
    ExcludePolicy exclude;
    AmbPolicy amb;
};

/**
 * Ok exactly when MemorySystem(@p config) would construct; otherwise
 * the bad-config message its constructor would die with.  Every
 * timing entry point calls this before building a machine.
 */
Status validate(const MemSysConfig &config);

} // namespace ccm

#endif // CCM_HIERARCHY_CONFIG_HH
