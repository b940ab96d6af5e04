#include "workloads/synthetic.hh"

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
SyntheticWorkload::emitOne(MemRecord &out)
{
    if (memEmitted >= memRefs_)
        return false;

    if (sinceMem < gap) {
        ++sinceMem;
        out = MemRecord{};
        out.pc = 0x100000 + (fillerPc++ % 4096) * 4;
        out.type = RecordType::NonMem;
        return true;
    }

    sinceMem = 0;
    out = genMem();
    ++memEmitted;
    return true;
}

bool
SyntheticWorkload::next(MemRecord &out)
{
    return emitOne(out);
}

std::size_t
SyntheticWorkload::nextBatch(MemRecord *out, std::size_t n)
{
    // Tight generation loop: one virtual call per batch instead of
    // per record (genMem() stays virtual but runs only once per
    // gap+1 records).
    std::size_t got = 0;
    while (got < n && emitOne(out[got]))
        ++got;
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
