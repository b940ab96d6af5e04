/**
 * @file
 * Ratio helpers shared by every statistics consumer: division that
 * reports 0 instead of NaN when nothing was counted.
 */

#ifndef CCM_COMMON_STATS_HH
#define CCM_COMMON_STATS_HH

#include <cstdint>

namespace ccm
{

/** @return a / b as a double, or 0.0 when b == 0. */
double safeRatio(std::uint64_t a, std::uint64_t b);

/** @return a / b as a percentage, or 0.0 when b == 0. */
double pct(std::uint64_t a, std::uint64_t b);

} // namespace ccm

#endif // CCM_COMMON_STATS_HH
