/**
 * @file
 * Chen & Baer reference prediction table (RPT) stride prefetcher —
 * the more sophisticated comparator the paper examined alongside the
 * next-line prefetcher (§5.2).  Unlike the next-line scheme + MCT,
 * the RPT must be read and updated on *every* memory access.
 *
 * Classic four-state design: each entry, indexed/tagged by load PC,
 * tracks the previous address and a stride with an
 * initial / transient / steady / no-prediction state machine.
 * A prefetch of (addr + stride) is suggested in steady state.
 */

#ifndef CCM_PREFETCH_RPT_HH
#define CCM_PREFETCH_RPT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_types.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace ccm
{

/** Reference prediction table stride prefetcher. */
class RptPrefetcher
{
  public:
    /** Entry state machine (Chen & Baer, 1995). */
    enum class State : std::uint8_t
    {
        Initial,
        Transient,
        Steady,
        NoPred,
    };

    /**
     * @param entries table size (power of two, direct-mapped by PC)
     */
    explicit RptPrefetcher(std::size_t entries = 512);

    /** Check the parameters the constructor would reject. */
    static Status validate(std::size_t entries);

    /**
     * Observe a memory access and, if the entry is confident, return
     * the address to prefetch.
     *
     * @param pc the load/store instruction address
     * @param addr the effective address
     * @return predicted next address, if in steady state
     */
    std::optional<ByteAddr> observe(ByteAddr pc, ByteAddr addr);

    /** Peek at an entry's state (testing). */
    State stateFor(ByteAddr pc) const;

    Count predictions() const { return nPred; }
    void clear();

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr prevAddr = 0;
        std::int64_t stride = 0;
        State state = State::Initial;
        bool valid = false;
    };

    std::size_t indexOf(ByteAddr pc) const
    {
        return static_cast<std::size_t>(pc.value() >> 2) & mask;
    }

    std::vector<Entry> table;
    std::size_t mask;
    Count nPred = 0;
};

} // namespace ccm

#endif // CCM_PREFETCH_RPT_HH
