#include "mct/mct.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

Status
MissClassificationTable::validate(std::size_t num_sets,
                                  unsigned tag_bits)
{
    if (num_sets == 0)
        return Status::badConfig("MCT needs at least one set");
    if (tag_bits > 64) {
        return Status::badConfig("MCT tag bits out of range: ",
                                 tag_bits);
    }
    return Status::ok();
}

MissClassificationTable::MissClassificationTable(std::size_t num_sets,
                                                 unsigned tag_bits)
    : entries(num_sets), tagBits_(tag_bits),
      tagMask(tag_bits == 0 ? ~Addr{0} : lowMask(tag_bits)),
      setLookups_(num_sets, 0), setConflicts_(num_sets, 0)
{
    fatalIfError(validate(num_sets, tag_bits));
}

void
MissClassificationTable::clear()
{
    for (auto &e : entries)
        e = Entry{};
    std::fill(setLookups_.begin(), setLookups_.end(), 0);
    std::fill(setConflicts_.begin(), setConflicts_.end(), 0);
}

} // namespace ccm
