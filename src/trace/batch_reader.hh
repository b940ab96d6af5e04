/**
 * @file
 * Buffered, batch-pulling front end over a TraceSource.
 *
 * The simulation drivers (core timing loop, SMT core, classification
 * runs, the page-remap replay) consume tens of millions of records
 * per run; pulling them one virtual next() at a time makes the
 * indirect call and its branch the hottest instruction in the repo.
 * BatchReader pulls fixed-size batches through nextBatch() into a
 * local buffer and hands records out through a non-virtual inline
 * next(), so the virtual dispatch amortizes across ~256 records while
 * the record sequence stays exactly the one next() would produce.
 *
 * Batches are maxTraceBatch records.  A source may return fewer per
 * call; tests/test_batch.cc drives every consumer through a source
 * that returns one record per batch to prove the results do not
 * depend on the partitioning.
 */

#ifndef CCM_TRACE_BATCH_READER_HH
#define CCM_TRACE_BATCH_READER_HH

#include <array>
#include <cstddef>

#include "trace/source.hh"

namespace ccm
{

/** Hard upper bound on any delivery batch (buffer size). */
inline constexpr std::size_t maxTraceBatch = 256;

/** Batch-buffered reader; does not reset() the source. */
class BatchReader
{
  public:
    explicit BatchReader(TraceSource &src) : src_(src) {}

    /** Same sequence and semantics as TraceSource::next(). */
    bool
    next(MemRecord &out)
    {
        if (pos == count && !refill())
            return false;
        out = buf[pos++];
        return true;
    }

  private:
    bool
    refill()
    {
        // A short batch is not end-of-trace (see the nextBatch
        // contract); only an empty one is, so a short refill simply
        // leads to another refill on a later next().
        count = src_.nextBatch(buf.data(), buf.size());
        pos = 0;
        return count > 0;
    }

    TraceSource &src_;
    std::size_t pos = 0;
    std::size_t count = 0;
    std::array<MemRecord, maxTraceBatch> buf;
};

} // namespace ccm

#endif // CCM_TRACE_BATCH_READER_HH
