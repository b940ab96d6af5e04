#include "hierarchy/memstats.hh"

namespace ccm
{

void
MemStats::dump(std::ostream &os, const char *prefix) const
{
    forEachField([&](const char *name, Count MemStats::*field) {
        os << prefix << "." << name << " " << this->*field << "\n";
    });
    forEachDerived([&](const char *name, double v) {
        os << prefix << "." << name << " " << v << "\n";
    });
}

MemStats
MemStats::minus(const MemStats &prev) const
{
    MemStats d;
    forEachField([&](const char *, Count MemStats::*field) {
        d.*field = this->*field - prev.*field;
    });
    return d;
}

} // namespace ccm
