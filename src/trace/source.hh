/**
 * @file
 * Abstract producer of MemRecords.  Workload generators, file readers
 * and in-memory traces all implement this interface; the core and the
 * functional experiment drivers consume it.
 */

#ifndef CCM_TRACE_SOURCE_HH
#define CCM_TRACE_SOURCE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/delta.hh"
#include "trace/record.hh"

namespace ccm
{

/**
 * A point between two records of a viewed source: where the next
 * record comes from.  An in-memory span keeps its record index in
 * `at`; a packed trace file its run in `at` and the record within the
 * run in `within`; a delta trace file its body byte offset in `at` and
 * the predictor state the next record decodes against in `codec`.
 * Only the view that produced a position can interpret it.
 */
struct TracePosition
{
    std::size_t at = 0;
    std::size_t within = 0;
    delta::Codec codec;
};

/** Records per chunk of a view (a run's or trace's last may be short). */
inline constexpr std::size_t traceChunkRecords = std::size_t{1} << 16;

/** One independently decodable piece of a viewed source. */
struct TraceChunk
{
    TracePosition start; ///< where the chunk's first record decodes
    std::size_t records = 0;
};

/**
 * Read-only random access to a finite source: its records cut into
 * chunks that decode independently, each from its own start.  Every
 * member is const and read() touches only the caller's cursor, so
 * any number of threads may read one view at once.
 */
class TraceView
{
  public:
    virtual ~TraceView() = default;

    /**
     * The chunks in stream order, traceChunkRecords records each
     * except where a packed run or the trace ends; together they
     * hold every record once.  Empty for an empty trace.
     */
    virtual const std::vector<TraceChunk> &chunks() const = 0;

    /**
     * Decode up to @p n records at @p cursor (a chunk start, or a
     * cursor an earlier read() advanced) into @p out, in stream
     * order, and advance @p cursor past them.  Reading runs on across
     * chunk boundaries.  @return records decoded (0 iff the cursor
     * is at the end of the trace)
     */
    virtual std::size_t read(TracePosition &cursor, MemRecord *out,
                             std::size_t n) const = 0;
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
     * Random access to the same records, for consumers that read a
     * whole trace in parallel chunks; nullptr when the source only
     * decodes forward (a generator).
     */
    virtual const TraceView *view() const { return nullptr; }

    /** Rewind to the beginning so the trace can be replayed. */
    virtual void reset() = 0;

    /** Human-readable name (used as a row label in result tables). */
    virtual std::string name() const = 0;
};

} // namespace ccm

#endif // CCM_TRACE_SOURCE_HH
