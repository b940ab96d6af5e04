#include "mct/shadow.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

Status
ShadowDirectory::validate(std::size_t num_sets, unsigned depth,
                          unsigned tag_bits)
{
    if (num_sets == 0) {
        return Status::badConfig(
            "shadow directory needs at least one set");
    }
    if (depth == 0) {
        return Status::badConfig(
            "shadow directory depth must be >= 1");
    }
    if (tag_bits > 64) {
        return Status::badConfig("shadow tag bits out of range: ",
                                 tag_bits);
    }
    return Status::ok();
}

ShadowDirectory::ShadowDirectory(std::size_t num_sets, unsigned depth,
                                 unsigned tag_bits)
    : sets(num_sets), depth_(depth), tagBits(tag_bits),
      tagMask(tag_bits == 0 ? ~Addr{0} : lowMask(tag_bits)),
      slots(num_sets * depth),
      setLookups_(num_sets, 0), setConflicts_(num_sets, 0)
{
    fatalIfError(validate(num_sets, depth, tag_bits));
}

Addr
ShadowDirectory::maskTag(Tag tag) const
{
    return tag.value() & tagMask;
}

MissClass
ShadowDirectory::classify(SetIndex set, Tag tag) const
{
    bool conflict = matchDepth(set, tag) != 0;
    MissClass verdict =
        conflict ? MissClass::Conflict : MissClass::Capacity;
    ++setLookups_[set.value()];
    if (conflict)
        ++setConflicts_[set.value()];
    if (hook_) {
        const Slot &front = row(set.value())[0];
        hook_({set, front.tag, front.valid, tag, verdict});
    }
    return verdict;
}

unsigned
ShadowDirectory::matchDepth(SetIndex set, Tag tag) const
{
    const Slot *r = row(set.value());
    Addr t = maskTag(tag);
    for (unsigned d = 0; d < depth_; ++d) {
        if (r[d].valid && r[d].tag == t)
            return d + 1;
    }
    return 0;
}

void
ShadowDirectory::recordEviction(SetIndex set, Tag tag)
{
    Slot *r = row(set.value());
    Addr t = maskTag(tag);

    // If the tag is already remembered, move it to the front;
    // otherwise shift everything down and insert at the front.
    unsigned found = depth_ - 1;
    for (unsigned d = 0; d < depth_; ++d) {
        if (r[d].valid && r[d].tag == t) {
            found = d;
            break;
        }
    }
    for (unsigned d = found; d > 0; --d)
        r[d] = r[d - 1];
    r[0].tag = t;
    r[0].valid = true;
}

std::size_t
ShadowDirectory::storageBits() const
{
    unsigned per_slot = (tagBits == 0 ? 64u : tagBits) + 1u;
    return slots.size() * per_slot;
}

void
ShadowDirectory::clear()
{
    for (auto &s : slots)
        s = Slot{};
    std::fill(setLookups_.begin(), setLookups_.end(), 0);
    std::fill(setConflicts_.begin(), setConflicts_.end(), 0);
}

} // namespace ccm
