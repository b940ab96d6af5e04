#include "prefetch/nextline.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

NextLinePrefetcher::NextLinePrefetcher(unsigned line_bytes)
    : lineBytes(line_bytes)
{
    if (!isPowerOfTwo(line_bytes))
        ccm_fatal("line size must be a power of two: ", line_bytes);
}

LineAddr
NextLinePrefetcher::nextLine(LineAddr line_addr) const
{
    return LineAddr{(line_addr.value() & ~Addr{lineBytes - 1u}) +
                    lineBytes};
}

void
NextLinePrefetcher::clearStats()
{
    nIssued = nDropped = nFiltered = nUseful = 0;
}

} // namespace ccm
