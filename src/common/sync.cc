#include "common/sync.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace ccm
{

bool
lockRankChecksEnabled()
{
#ifdef CCM_LOCK_RANK_CHECK
    return true;
#else
    return false;
#endif
}

namespace detail
{

#ifdef CCM_LOCK_RANK_CHECK

namespace
{

/**
 * Ranks this thread currently holds, in acquisition order.  A plain
 * vector: depth is the nesting depth of locks (2-3 in practice), and
 * the checker is per-thread so no synchronization is needed.
 */
thread_local std::vector<int> heldRanks;

} // namespace

void
noteLockAcquired(int rank, const char *name)
{
    if (rank == 0)
        return;
    for (int held : heldRanks) {
        if (held >= rank) {
            ccm_fatal(
                "lock-rank inversion: acquiring '", name, "' (rank ",
                rank, ") while already holding rank ", held,
                "; the global order is ascending LockRank — see the "
                "rank table in docs/STATIC_ANALYSIS.md");
        }
    }
    heldRanks.push_back(rank);
}

void
noteLockReleased(int rank)
{
    if (rank == 0)
        return;
    const auto it =
        std::find(heldRanks.rbegin(), heldRanks.rend(), rank);
    if (it != heldRanks.rend())
        heldRanks.erase(std::next(it).base());
}

#else // !CCM_LOCK_RANK_CHECK

void
noteLockAcquired(int, const char *)
{
}

void
noteLockReleased(int)
{
}

#endif // CCM_LOCK_RANK_CHECK

} // namespace detail
} // namespace ccm
