/**
 * @file
 * In-memory traces: VectorTrace owns a vector of records replayed in
 * order (hand-written test patterns, captured generator output);
 * SpanTrace replays a caller's record array without copying it.
 */

#ifndef CCM_TRACE_VECTOR_TRACE_HH
#define CCM_TRACE_VECTOR_TRACE_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "trace/source.hh"

namespace ccm
{

/** TraceSource backed by a std::vector of records. */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace() = default;

    VectorTrace(std::string trace_name, std::vector<MemRecord> recs)
        : records_(std::move(recs)), label(std::move(trace_name))
    {}

    /** Capture every record of @p src (which is reset first). */
    static VectorTrace capture(TraceSource &src);

    bool next(MemRecord &out) override;
    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override { pos = 0; }
    std::string name() const override { return label; }

    /** Append one record (builder-style use in tests). */
    void push(const MemRecord &r) { records_.push_back(r); }

    /** Append a load to @p addr (pc defaults to the record index). */
    void pushLoad(Addr addr, Addr pc = invalidAddr);
    /** Append a store to @p addr. */
    void pushStore(Addr addr, Addr pc = invalidAddr);
    /** Append @p n non-memory instructions. */
    void pushNonMem(std::size_t n = 1);

    std::size_t size() const { return records_.size(); }
    const MemRecord &at(std::size_t i) const { return records_.at(i); }

    /** The backing record sequence (span views, conversions). */
    const std::vector<MemRecord> &records() const { return records_; }

    void setName(std::string n) { label = std::move(n); }

  private:
    std::vector<MemRecord> records_;
    std::size_t pos = 0;
    std::string label = "vector";
};

/**
 * Non-owning TraceSource over a caller's record array, with a view
 * whose cursors are plain record indices.
 */
class SpanTrace : public TraceSource, public TraceView
{
  public:
    SpanTrace(const MemRecord *records, std::size_t count);

    bool next(MemRecord &out) override;
    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override { cursor_ = {}; }
    std::string name() const override { return "span"; }

    const TraceView *view() const override { return this; }
    const std::vector<TraceChunk> &chunks() const override
    {
        return chunks_;
    }
    std::size_t read(TracePosition &cursor, MemRecord *out,
                     std::size_t n) const override;

  private:
    const MemRecord *records_;
    std::size_t count_;
    std::vector<TraceChunk> chunks_;
    TracePosition cursor_;
};

} // namespace ccm

#endif // CCM_TRACE_VECTOR_TRACE_HH
