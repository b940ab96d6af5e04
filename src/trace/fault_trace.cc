#include "trace/fault_trace.hh"

#include <initializer_list>

namespace ccm
{

namespace
{

// Distinct PCG32 stream selector so fault decisions never correlate
// with the workload generators (which use the default stream).
constexpr std::uint64_t faultStream = 0xfau;

} // namespace

Status
FaultPlan::validate() const
{
    for (double rate : {bitFlipRate, dropRate, duplicateRate}) {
        // Written so that NaN fails too.
        if (!(rate >= 0.0 && rate <= 1.0))
            return Status::badConfig(
                "fault rates must be within [0, 1], got ", rate);
    }
    return Status::ok();
}

FaultInjectingSource::FaultInjectingSource(TraceSource &inner,
                                           const FaultPlan &plan)
    : inner_(inner), plan_(plan), rng(plan.seed, faultStream)
{
    fatalIfError(plan.validate());
}

bool
FaultInjectingSource::innerNext(MemRecord &out)
{
    if (innerPos == innerCount) {
        innerCount = inner_.nextBatch(innerBuf.data(), maxTraceBatch);
        innerPos = 0;
        if (innerCount == 0)
            return false;
    }
    out = innerBuf[innerPos++];
    return true;
}

bool
FaultInjectingSource::next(MemRecord &out)
{
    return emitOne(out);
}

std::size_t
FaultInjectingSource::nextBatch(MemRecord *out, std::size_t n)
{
    std::size_t got = 0;
    while (got < n && emitOne(out[got]))
        ++got;
    return got;
}

bool
FaultInjectingSource::emitOne(MemRecord &out)
{
    if (plan_.truncateAfter > 0 && emitted >= plan_.truncateAfter) {
        // Drain nothing further: the dirty trace ends here even
        // though the clean source has more.
        if (!stats_.truncated) {
            MemRecord probe;
            stats_.truncated = innerNext(probe);
        }
        return false;
    }

    if (havePendingDup) {
        havePendingDup = false;
        out = pendingDup;
        ++emitted;
        return true;
    }

    MemRecord r;
    for (;;) {
        if (!innerNext(r))
            return false;
        if (plan_.dropRate > 0 && rng.chance(plan_.dropRate)) {
            ++stats_.drops;
            continue;
        }
        break;
    }

    if (plan_.bitFlipRate > 0 && rng.chance(plan_.bitFlipRate)) {
        // Flip one of the 128 pc/addr bits.
        std::uint32_t bit = rng.below(128);
        if (bit < 64)
            r.pc ^= Addr{1} << bit;
        else
            r.addr ^= Addr{1} << (bit - 64);
        ++stats_.bitFlips;
    }

    if (plan_.duplicateRate > 0 && rng.chance(plan_.duplicateRate)) {
        pendingDup = r;
        havePendingDup = true;
        ++stats_.duplicates;
    }

    out = r;
    ++emitted;
    return true;
}

void
FaultInjectingSource::reset()
{
    inner_.reset();
    rng = Pcg32(plan_.seed, faultStream);
    stats_ = FaultStats{};
    emitted = 0;
    havePendingDup = false;
    innerPos = 0;
    innerCount = 0;
}

} // namespace ccm
