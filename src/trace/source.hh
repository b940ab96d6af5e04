/**
 * @file
 * Abstract producer of MemRecords.  Workload generators, file readers
 * and in-memory traces all implement this interface; the core and the
 * functional experiment drivers consume it.
 */

#ifndef CCM_TRACE_SOURCE_HH
#define CCM_TRACE_SOURCE_HH

#include <cstddef>
#include <optional>
#include <string>

#include "trace/delta.hh"
#include "trace/record.hh"

namespace ccm
{

/**
 * A point between two records of a seekable source: where the next
 * record comes from.  An in-memory span keeps its record index in
 * `at`; a packed trace file its run in `at` and the record within the
 * run in `within`; a delta trace file its body byte offset in `at` and
 * the predictor state the next record decodes against in `codec`.
 * Only the source that produced a position can interpret it.
 */
struct TracePosition
{
    std::size_t at = 0;
    std::size_t within = 0;
    delta::Codec codec;
};

/** A replayable, finite stream of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     *
     * @param out filled in on success
     * @retval true a record was produced
     * @retval false the trace is exhausted
     */
    virtual bool next(MemRecord &out) = 0;

    /**
     * Produce up to @p n records into @p out, in stream order.
     *
     * Contract: the concatenation of successive nextBatch() results is
     * the exact record sequence next() would have produced (mixing the
     * two styles on one source is also allowed).  A return value of 0
     * means the trace is exhausted; a short (nonzero) batch carries no
     * end-of-trace meaning by itself, callers must pull again.
     *
     * The default loops over next(); implementations on the hot path
     * override it to amortize the virtual call over the whole batch
     * (bulk copies for in-memory traces, tight generation loops for
     * the synthetic workloads).
     *
     * @return number of records produced (0 iff exhausted)
     */
    virtual std::size_t
    nextBatch(MemRecord *out, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n && next(out[got]))
            ++got;
        return got;
    }

    /**
     * Where the next record comes from, for a later seek(); nullopt
     * when the source cannot seek (a generator only decodes forward).
     */
    virtual std::optional<TracePosition>
    position() const
    {
        return std::nullopt;
    }

    /**
     * Continue the stream at a position() of this source.  @return
     * false (nothing moved) when the source cannot seek or the
     * position lies outside it.
     */
    virtual bool seek(const TracePosition &) { return false; }

    /** Rewind to the beginning so the trace can be replayed. */
    virtual void reset() = 0;

    /** Human-readable name (used as a row label in result tables). */
    virtual std::string name() const = 0;
};

} // namespace ccm

#endif // CCM_TRACE_SOURCE_HH
