/**
 * @file
 * Base class for the synthetic SPEC95-inspired workload generators.
 *
 * Each generator is a deterministic function of (parameters, seed): it
 * emits a finite stream of dynamic instructions in which every
 * `nonMemPerMem`-th-ish record carries a memory reference produced by
 * the subclass.  The interleaved non-memory instructions give the
 * timing model a realistic memory-op density (~1/3 of instructions),
 * which matters for how much miss latency the out-of-order window can
 * hide.
 */

#ifndef CCM_WORKLOADS_SYNTHETIC_HH
#define CCM_WORKLOADS_SYNTHETIC_HH

#include <cstddef>
#include <string>

#include "common/random.hh"
#include "trace/source.hh"

namespace ccm
{

/** Deterministic synthetic trace generator. */
class SyntheticWorkload : public TraceSource
{
  public:
    /**
     * @param label workload name (row label in result tables)
     * @param mem_refs number of memory references to emit
     * @param non_mem_per_mem non-memory instructions between refs
     * @param seed RNG seed; same seed -> identical stream
     */
    SyntheticWorkload(std::string label, std::size_t mem_refs,
                      unsigned non_mem_per_mem, std::uint64_t seed);

    bool next(MemRecord &out) final;
    std::size_t nextBatch(MemRecord *out, std::size_t n) final;
    void reset() final;
    std::string name() const override { return label_; }

    std::size_t memRefs() const { return memRefs_; }

  protected:
    /**
     * Produce the next memory reference.  Called exactly memRefs()
     * times between resets, in order.
     */
    virtual MemRecord genMem() = 0;

    /** Re-initialize subclass state for a replay. */
    virtual void restart() = 0;

    /** Fresh, reproducible RNG; reseeded on every reset(). */
    Pcg32 rng;

    /** Helper: build a load record. */
    static MemRecord
    load(Addr pc, Addr addr, bool depends_on_prev = false)
    {
        MemRecord r;
        r.pc = pc;
        r.addr = addr;
        r.type = RecordType::Load;
        r.dependsOnPrevLoad = depends_on_prev;
        return r;
    }

    /** Helper: build a store record. */
    static MemRecord
    store(Addr pc, Addr addr)
    {
        MemRecord r;
        r.pc = pc;
        r.addr = addr;
        r.type = RecordType::Store;
        return r;
    }

  private:
    std::string label_;
    std::size_t memRefs_;
    unsigned gap;
    std::uint64_t seed_;

    std::size_t memEmitted = 0;
    unsigned sinceMem = 0;
    Addr fillerPc = 0;
};

} // namespace ccm

#endif // CCM_WORKLOADS_SYNTHETIC_HH
