#include "mct/mct.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

Status
MissClassificationTable::validate(std::size_t num_sets,
                                  unsigned tag_bits, unsigned depth)
{
    if (num_sets == 0)
        return Status::badConfig("MCT needs at least one set");
    if (depth == 0)
        return Status::badConfig("MCT depth must be >= 1");
    if (tag_bits > 64) {
        return Status::badConfig("MCT tag bits out of range: ",
                                 tag_bits);
    }
    return Status::ok();
}

MissClassificationTable::MissClassificationTable(std::size_t num_sets,
                                                 unsigned tag_bits,
                                                 unsigned depth)
    : tagBits_(tag_bits), depth_(depth),
      tagMask(tag_bits == 0 ? ~Addr{0} : lowMask(tag_bits)),
      slots(num_sets * depth),
      setLookups_(num_sets, 0), setConflicts_(num_sets, 0)
{
    fatalIfError(validate(num_sets, tag_bits, depth));
}

void
MissClassificationTable::clear()
{
    std::fill(slots.begin(), slots.end(), Slot{});
    std::fill(setLookups_.begin(), setLookups_.end(), 0);
    std::fill(setConflicts_.begin(), setConflicts_.end(), 0);
}

} // namespace ccm
