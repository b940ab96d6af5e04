#include "workloads/synthetic.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccm
{

SyntheticWorkload::SyntheticWorkload(std::string label,
                                     std::size_t mem_refs,
                                     unsigned non_mem_per_mem,
                                     std::uint64_t seed)
    : rng(seed), label_(std::move(label)), memRefs_(mem_refs),
      gap(non_mem_per_mem), seed_(seed)
{
    if (mem_refs == 0)
        ccm_fatal("workload '", label_, "' needs mem_refs > 0");
}

bool
SyntheticWorkload::next(MemRecord &out)
{
    return nextBatch(&out, 1) == 1;
}

std::size_t
SyntheticWorkload::nextBatch(MemRecord *out, std::size_t n)
{
    // One virtual call per batch instead of per record.  The gap
    // between memory references is written as one run of filler
    // records (genMem() stays virtual but runs only once per gap+1
    // records), and the stream ends right after the last reference.
    std::size_t got = 0;
    while (got < n && memEmitted < memRefs_) {
        if (sinceMem < gap) {
            const std::size_t run =
                std::min<std::size_t>(gap - sinceMem, n - got);
            for (MemRecord *r = out + got, *end = r + run; r != end;
                 ++r) {
                *r = MemRecord{};
                r->pc = 0x100000 + (fillerPc++ % 4096) * 4;
            }
            sinceMem += static_cast<unsigned>(run);
            got += run;
            continue;
        }
        sinceMem = 0;
        out[got++] = genMem();
        ++memEmitted;
    }
    return got;
}

void
SyntheticWorkload::reset()
{
    rng = Pcg32(seed_);
    memEmitted = 0;
    sinceMem = 0;
    fillerPc = 0;
    restart();
}

} // namespace ccm
