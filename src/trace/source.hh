/**
 * @file
 * Abstract producer of MemRecords.  Workload generators, file readers
 * and in-memory traces all implement this interface; the core and the
 * functional experiment drivers consume it.  A finite source may also
 * offer a random-access view (TraceView); whole-trace readers go
 * through mapChunks(), which reads the view's chunks in parallel or a
 * forward-only source in one piece.
 */

#ifndef CCM_TRACE_SOURCE_HH
#define CCM_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hh"
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
     * except where a packed run, a delta range or the trace ends;
     * together they hold every record once.  Empty for an empty
     * trace.
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
     * Random access to the same records; nullptr when the source only
     * decodes forward (a generator).  Consumers that read a whole
     * trace go through mapChunks() below, not through the view.
     */
    virtual const TraceView *view() const { return nullptr; }

    /** Rewind to the beginning so the trace can be replayed. */
    virtual void reset() = 0;

    /** Human-readable name (used as a row label in result tables). */
    virtual std::string name() const = 0;
};

/**
 * One piece of a source, as mapChunks() hands it out: a view chunk
 * read at its own cursor, or the whole of a forward-only source.
 */
class ChunkReader
{
  public:
    /** Chunk @p chunk of @p view, the @p index-th in stream order. */
    ChunkReader(const TraceView &view, const TraceChunk &chunk,
                std::size_t index)
        : view_(&view), cursor_(chunk.start), left_(chunk.records),
          index_(index)
    {}

    /** All of @p source, from where it stands. */
    explicit ChunkReader(TraceSource &source) : source_(&source) {}

    /**
     * Decode up to @p n of the piece's next records into @p out, in
     * stream order.  @return records decoded (0 iff the piece is done)
     */
    std::size_t
    read(MemRecord *out, std::size_t n)
    {
        if (source_ != nullptr)
            return source_->nextBatch(out, n);
        n = std::min(n, left_);
        const std::size_t got = n > 0 ? view_->read(cursor_, out, n) : 0;
        left_ -= got;
        return got;
    }

    /**
     * Where the next record decodes, as a cursor of the source's view;
     * nullptr for a forward-only source.
     */
    const TracePosition *
    position() const
    {
        return view_ != nullptr ? &cursor_ : nullptr;
    }

    /** The piece's place in stream order (0 for a whole source). */
    std::size_t index() const { return index_; }

  private:
    const TraceView *view_ = nullptr;
    TraceSource *source_ = nullptr;
    TracePosition cursor_;
    std::size_t left_ = 0;
    std::size_t index_ = 0;
};

/**
 * The one way to read a whole trace: return @p fn(reader) for each
 * piece of @p trace, in stream order.  A source with a view is one
 * piece per view chunk (none for an empty trace), the pieces read
 * concurrently on up to @p workers threads (forEachIndex); any other
 * source is reset and read through as one piece on the calling
 * thread.  @p fn must not throw, and its result type must be
 * default-constructible.
 */
template <typename Fn>
auto
mapChunks(TraceSource &trace, std::size_t workers, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, ChunkReader &>>
{
    std::vector<std::invoke_result_t<Fn &, ChunkReader &>> out;
    const TraceView *view = trace.view();
    if (view == nullptr) {
        trace.reset();
        ChunkReader whole(trace);
        out.push_back(fn(whole));
        return out;
    }
    const std::vector<TraceChunk> &chunks = view->chunks();
    out.resize(chunks.size());
    forEachIndex(chunks.size(), workers, [&](std::size_t c) {
        ChunkReader piece(*view, chunks[c], c);
        out[c] = fn(piece);
    });
    return out;
}

} // namespace ccm

#endif // CCM_TRACE_SOURCE_HH
