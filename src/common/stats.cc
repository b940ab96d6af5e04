#include "common/stats.hh"

namespace ccm
{

double
safeRatio(std::uint64_t a, std::uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

double
pct(std::uint64_t a, std::uint64_t b)
{
    return 100.0 * safeRatio(a, b);
}

} // namespace ccm
