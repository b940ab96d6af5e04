#include "prefetch/rpt.hh"

#include "common/bitutil.hh"

namespace ccm
{

Status
RptPrefetcher::validate(std::size_t entries)
{
    if (!isPowerOfTwo(entries))
        return Status::badConfig("RPT entries must be a power of two: ",
                                 entries);
    return Status::ok();
}

RptPrefetcher::RptPrefetcher(std::size_t entries)
    : table(entries), mask(entries - 1)
{
    fatalIfError(validate(entries));
}

std::optional<ByteAddr>
RptPrefetcher::observe(ByteAddr pc, ByteAddr addr)
{
    Entry &e = table[indexOf(pc)];

    if (!e.valid || e.tag != pc.value()) {
        e.valid = true;
        e.tag = pc.value();
        e.prevAddr = addr.value();
        e.stride = 0;
        e.state = State::Initial;
        return std::nullopt;
    }

    std::int64_t new_stride =
        static_cast<std::int64_t>(addr.value()) -
        static_cast<std::int64_t>(e.prevAddr);
    bool correct = new_stride == e.stride;

    switch (e.state) {
      case State::Initial:
        e.state = correct ? State::Steady : State::Transient;
        break;
      case State::Transient:
        e.state = correct ? State::Steady : State::NoPred;
        break;
      case State::Steady:
        if (!correct)
            e.state = State::Initial;
        break;
      case State::NoPred:
        if (correct)
            e.state = State::Transient;
        break;
    }

    if (!correct)
        e.stride = new_stride;
    e.prevAddr = addr.value();

    if (e.state == State::Steady && e.stride != 0) {
        ++nPred;
        return ByteAddr{static_cast<Addr>(
            static_cast<std::int64_t>(addr.value()) + e.stride)};
    }
    return std::nullopt;
}

RptPrefetcher::State
RptPrefetcher::stateFor(ByteAddr pc) const
{
    const Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != pc.value())
        return State::Initial;
    return e.state;
}

void
RptPrefetcher::clear()
{
    for (auto &e : table)
        e = Entry{};
    nPred = 0;
}

} // namespace ccm
