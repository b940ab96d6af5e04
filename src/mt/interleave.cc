#include "mt/interleave.hh"

#include "common/log.hh"

namespace ccm
{

InterleavedTrace::InterleavedTrace(std::vector<TraceSource *> sources,
                                   unsigned granularity)
    : children(std::move(sources)),
      exhausted(children.size(), false),
      gran(granularity)
{
    if (children.empty())
        ccm_fatal("InterleavedTrace needs at least one child");
    if (granularity == 0)
        ccm_fatal("interleave granularity must be >= 1");
}

void
InterleavedTrace::advanceTurn()
{
    taken = 0;
    for (std::size_t i = 1; i <= children.size(); ++i) {
        unsigned cand =
            static_cast<unsigned>((current + i) % children.size());
        if (!exhausted[cand]) {
            current = cand;
            return;
        }
    }
    // All exhausted: current stays; next() will return false.
}

bool
InterleavedTrace::next(MemRecord &out)
{
    for (std::size_t attempts = 0; attempts <= children.size();
         ++attempts) {
        if (exhausted[current]) {
            advanceTurn();
            if (exhausted[current])
                return false;
        }
        if (children[current]->next(out)) {
            lastProducer = current;
            if (++taken >= gran)
                advanceTurn();
            return true;
        }
        exhausted[current] = true;
    }
    return false;
}

void
InterleavedTrace::reset()
{
    for (auto *c : children)
        c->reset();
    std::fill(exhausted.begin(), exhausted.end(), false);
    current = 0;
    taken = 0;
    lastProducer = 0;
}

std::string
InterleavedTrace::name() const
{
    std::string n;
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (i)
            n += "+";
        n += children[i]->name();
    }
    return n;
}

} // namespace ccm
