/**
 * @file
 * Deterministic fault injection over any TraceSource.
 *
 * Robustness work needs dirty inputs on demand: a tracer that drops
 * records under load, a copy that picked up bit errors, a file cut
 * short by a crashed producer.  FaultInjectingSource decorates a
 * clean source with exactly those defects, driven by a seeded PCG32
 * stream so a given (plan, seed) always yields the identical dirty
 * trace — tests and benches can measure classifier stability under
 * corruption and still be reproducible.
 *
 * Faults are injected at the record level (the decorator sits above
 * the serialization layer); bit flips target the pc/addr fields and
 * never produce a structurally invalid record.  For on-disk defects
 * (bad magic, partial tails, mid-file garbage) write a clean file and
 * damage the bytes — see tests/test_fault_trace.cc.
 */

#ifndef CCM_TRACE_FAULT_TRACE_HH
#define CCM_TRACE_FAULT_TRACE_HH

#include <array>
#include <string>

#include "common/random.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "trace/batch_reader.hh"
#include "trace/source.hh"

namespace ccm
{

/** What to inject, and how often.  Rates are per-record in [0, 1]. */
struct FaultPlan
{
    std::uint64_t seed = 1;

    /** Probability of flipping one random bit of pc or addr. */
    double bitFlipRate = 0.0;

    /** Probability of silently dropping a record. */
    double dropRate = 0.0;

    /** Probability of emitting a record twice. */
    double duplicateRate = 0.0;

    /** Stop after this many emitted records; 0 = no truncation. */
    std::size_t truncateAfter = 0;

    bool
    enabled() const
    {
        return bitFlipRate > 0 || dropRate > 0 || duplicateRate > 0 ||
               truncateAfter > 0;
    }

    /** Bad-config unless every rate is within [0, 1]. */
    Status validate() const;
};

/** Counters for the faults actually injected since the last reset. */
struct FaultStats
{
    Count bitFlips = 0;
    Count drops = 0;
    Count duplicates = 0;
    bool truncated = false;
};

/** Decorator that replays @p inner with injected faults. */
class FaultInjectingSource : public TraceSource
{
  public:
    /** @p inner must outlive this decorator. */
    FaultInjectingSource(TraceSource &inner, const FaultPlan &plan);

    bool next(MemRecord &out) override;

    /**
     * Batch delivery: the clean source is drained in batches and the
     * fault plan applied record by record, so the dirty stream is
     * bit-identical to the next() path for any batch partitioning.
     */
    std::size_t nextBatch(MemRecord *out, std::size_t n) override;

    /** Rewind and reseed: the same dirty stream replays exactly. */
    void reset() override;

    std::string name() const override
    {
        return inner_.name() + "+faults";
    }

    const FaultStats &stats() const { return stats_; }
    const FaultPlan &plan() const { return plan_; }

  private:
    /** The per-record fault pipeline shared by next()/nextBatch(). */
    bool emitOne(MemRecord &out);

    /** Pull one clean record through the batched inner buffer. */
    bool innerNext(MemRecord &out);

    TraceSource &inner_;
    FaultPlan plan_;
    FaultStats stats_;
    Pcg32 rng;
    std::size_t emitted = 0;
    MemRecord pendingDup;
    bool havePendingDup = false;

    /** Read-ahead over the clean source (batched virtual pulls). */
    std::array<MemRecord, maxTraceBatch> innerBuf;
    std::size_t innerPos = 0;
    std::size_t innerCount = 0;
};

} // namespace ccm

#endif // CCM_TRACE_FAULT_TRACE_HH
