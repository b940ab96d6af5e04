#include "hierarchy/mshr.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccm
{

Status
MshrFile::validate(unsigned entries)
{
    if (entries == 0)
        return Status::badConfig("MSHR file needs at least one entry");
    return Status::ok();
}

MshrFile::MshrFile(unsigned entries) : cap(entries)
{
    fatalIfError(validate(entries));
    active.reserve(entries);
}

void
MshrFile::expire(Cycle now)
{
    std::erase_if(active,
                  [now](const Entry &e) { return e.ready <= now; });
}

std::optional<Cycle>
MshrFile::inFlight(LineAddr line_addr) const
{
    for (const auto &e : active) {
        if (e.lineAddr == line_addr)
            return e.ready;
    }
    return std::nullopt;
}

Cycle
MshrFile::earliestReady() const
{
    Cycle best = 0;
    for (const auto &e : active)
        best = best == 0 ? e.ready : std::min(best, e.ready);
    return best;
}

void
MshrFile::allocate(LineAddr line_addr, Cycle ready)
{
    if (full())
        ccm_panic("MSHR allocate while full");
    active.push_back({line_addr, ready});
}

} // namespace ccm
