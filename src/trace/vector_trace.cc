#include "trace/vector_trace.hh"

#include <algorithm>

#include "trace/batch_reader.hh"

namespace ccm
{

VectorTrace
VectorTrace::capture(TraceSource &src)
{
    VectorTrace t;
    t.setName(src.name());
    src.reset();
    MemRecord chunk[maxTraceBatch];
    std::size_t got;
    while ((got = src.nextBatch(chunk, maxTraceBatch)) > 0)
        t.records_.insert(t.records_.end(), chunk, chunk + got);
    return t;
}

bool
VectorTrace::next(MemRecord &out)
{
    if (pos >= records_.size())
        return false;
    out = records_[pos++];
    return true;
}

std::size_t
VectorTrace::nextBatch(MemRecord *out, std::size_t n)
{
    const std::size_t got = std::min(n, records_.size() - pos);
    std::copy_n(records_.begin() +
                    static_cast<std::ptrdiff_t>(pos),
                got, out);
    pos += got;
    return got;
}

SpanTrace::SpanTrace(const MemRecord *records, std::size_t count)
    : records_(records), count_(count)
{
    for (std::size_t at = 0; at < count; at += traceChunkRecords)
        chunks_.push_back(
            {{at, 0, {}}, std::min(traceChunkRecords, count - at)});
}

bool
SpanTrace::next(MemRecord &out)
{
    return nextBatch(&out, 1) == 1;
}

std::size_t
SpanTrace::nextBatch(MemRecord *out, std::size_t n)
{
    return read(cursor_, out, n);
}

std::size_t
SpanTrace::read(TracePosition &cursor, MemRecord *out,
                std::size_t n) const
{
    const std::size_t got =
        cursor.at < count_ ? std::min(n, count_ - cursor.at) : 0;
    std::copy_n(records_ + cursor.at, got, out);
    cursor.at += got;
    return got;
}

void
VectorTrace::pushLoad(Addr addr, Addr pc)
{
    MemRecord r;
    r.pc = pc == invalidAddr ? records_.size() * 4 : pc;
    r.addr = addr;
    r.type = RecordType::Load;
    records_.push_back(r);
}

void
VectorTrace::pushStore(Addr addr, Addr pc)
{
    MemRecord r;
    r.pc = pc == invalidAddr ? records_.size() * 4 : pc;
    r.addr = addr;
    r.type = RecordType::Store;
    records_.push_back(r);
}

void
VectorTrace::pushNonMem(std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        MemRecord r;
        r.pc = records_.size() * 4;
        r.type = RecordType::NonMem;
        records_.push_back(r);
    }
}

} // namespace ccm
