#include "remap/cml.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

CmlBuffer::CmlBuffer(std::size_t page_bytes)
    : pageShift(floorLog2(page_bytes))
{
    if (!isPowerOfTwo(page_bytes))
        ccm_fatal("page size must be a power of two: ", page_bytes);
    // Pre-size for a typical hot-page working set so epoch-steady
    // recording does not rehash.
    counts.reserve(1024);
}

void
CmlBuffer::recordMiss(ByteAddr vaddr)
{
    ++counts[pageOf(vaddr)];
}

std::uint32_t
CmlBuffer::count(ByteAddr vaddr) const
{
    auto it = counts.find(pageOf(vaddr));
    return it == counts.end() ? 0 : it->second;
}

std::vector<Addr>
CmlBuffer::hotPages(std::uint32_t threshold) const
{
    std::vector<std::pair<Addr, std::uint32_t>> hot;
    for (const auto &[page, n] : counts) {
        if (n >= threshold)
            hot.emplace_back(page, n);
    }
    std::sort(hot.begin(), hot.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::vector<Addr> pages;
    pages.reserve(hot.size());
    for (const auto &[page, n] : hot)
        pages.push_back(page);
    return pages;
}

void
CmlBuffer::newEpoch()
{
    counts.clear();
}

} // namespace ccm
