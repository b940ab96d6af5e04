/**
 * @file
 * The simulated memory system: banked non-blocking L1D, the
 * configurable assist buffer (victim / prefetch / bypass / AMB), a
 * 1 MB 2-way L2, main memory, the MCT, and contention for banks,
 * buffer ports, the L1<->L2 bus and MSHRs.
 *
 * The CPU model calls access() once per memory instruction with the
 * cycle the access issues; the return value says when the data is
 * available.  All policy behaviour from paper §5 lives here.
 */

#ifndef CCM_HIERARCHY_MEMSYS_HH
#define CCM_HIERARCHY_MEMSYS_HH

#include <functional>
#include <memory>

#include "assist/buffer.hh"
#include "cache/cache.hh"
#include "exclude/history.hh"
#include "exclude/mat.hh"
#include "exclude/tyson.hh"
#include "hierarchy/config.hh"
#include "hierarchy/memstats.hh"
#include "hierarchy/mshr.hh"
#include "hierarchy/resource.hh"
#include "mct/mct.hh"
#include "prefetch/nextline.hh"
#include "prefetch/rpt.hh"
#include "pseudo/pseudo_cache.hh"

namespace ccm
{

/** What one access did and when its data arrives. */
struct AccessResult
{
    /** Cycle the requested word is available to the CPU. */
    Cycle ready = 0;
    bool l1Hit = false;
    bool bufHit = false;
    bool l2Hit = false;
    /** MCT classification (valid when the L1 missed). */
    MissClass missClass = MissClass::Capacity;
};

/**
 * Observer invoked after every completed access with the result and
 * the running counters (the obs-layer interval sampler hangs off
 * this).  Off by default; cost when unset is one branch.
 */
using MemAccessHook =
    std::function<void(const AccessResult &, const MemStats &)>;

/** The paper's three-level memory system with pluggable assists. */
class MemorySystem
{
  public:
    /** Dies (ccm_fatal) on a @p config that validate() rejects. */
    explicit MemorySystem(const MemSysConfig &config);

    /**
     * Perform one data access.
     *
     * @param pc instruction address (drives PC-indexed predictors)
     * @param addr effective address
     * @param is_store store vs load
     * @param now issue cycle (approximately nondecreasing)
     */
    AccessResult
    access(ByteAddr pc, ByteAddr addr, bool is_store, Cycle now)
    {
        AccessResult r = accessImpl(pc, addr, is_store, now);
        if (accessHook)
            accessHook(r, st);
        return r;
    }

    /** Attach @p hook, called after every access; empty detaches. */
    void
    setAccessHook(MemAccessHook hook)
    {
        accessHook = std::move(hook);
    }

    const MemStats &stats() const { return st; }
    const MemSysConfig &config() const { return cfg; }

    /** The L1 (null in pseudo-associative mode). */
    const Cache *l1Cache() const { return l1.get(); }
    const PseudoAssocCache *pseudoCache() const { return pseudo.get(); }
    const AssistBuffer *buffer() const { return buf.get(); }
    const MissClassificationTable &mct() const { return mct_; }

    /** Mutable MCT access for instrumentation (lookup hooks). */
    MissClassificationTable &mct() { return mct_; }

    /**
     * Per-set activity histograms (heatmap source).  Empty in
     * pseudo-associative mode, which has no conventional L1.
     */
    SetHistograms setHistograms() const;

  private:
    AccessResult accessImpl(ByteAddr pc, ByteAddr addr, bool is_store,
                            Cycle now);

    /**
     * Fetch a line from L2/memory through the MSHRs and bus.
     *
     * @param line_addr line to fetch
     * @param start earliest start cycle
     * @param is_prefetch prefetches are dropped when MSHRs are full
     * @return data-ready cycle, or nullopt for a dropped prefetch
     */
    std::optional<Cycle> fetchLine(LineAddr line_addr, Cycle start,
                                   bool is_prefetch);

    /** Write back a dirty line (bus occupancy + accounting). */
    void writeback(LineAddr line_addr, Cycle when);

    /**
     * Install @p addr into the L1, updating the MCT with the evicted
     * tag and routing the evicted line per the active victim policy.
     *
     * @param miss_is_conflict MCT class of the triggering miss
     * @param when fill time (for buffer-port occupancy)
     * @param to_buffer whether an evicted line may enter the buffer
     */
    void fillL1(ByteAddr addr, bool miss_is_conflict, bool is_store,
                Cycle when, bool allow_victim_fill);

    /** Insert a line into the assist buffer, handling displacement. */
    void bufferInsert(LineAddr line_addr, BufSource source,
                      bool conflict_bit, bool dirty, Cycle ready,
                      Cycle when);

    /** Issue a next-line prefetch for the line after @p line_addr. */
    void issuePrefetch(LineAddr line_addr, Cycle start);

    /** Issue a prefetch of @p target_line itself (RPT targets). */
    void issuePrefetchLine(LineAddr target_line, Cycle start);

    /** Exclusion decision for a miss (BypassBuffer / AMB modes). */
    bool shouldExclude(ByteAddr pc, ByteAddr addr,
                       bool miss_is_conflict);

    AccessResult accessPseudo(ByteAddr addr, bool is_store,
                              Cycle now);

    MemSysConfig cfg;
    CacheGeometry l1Geom;

    std::unique_ptr<Cache> l1;
    std::unique_ptr<PseudoAssocCache> pseudo;
    Cache l2;
    MissClassificationTable mct_;
    std::unique_ptr<AssistBuffer> buf;
    NextLinePrefetcher nextLine;
    std::unique_ptr<RptPrefetcher> rpt;
    std::unique_ptr<MemoryAccessTable> mat;
    std::unique_ptr<PcMissTable> pcTable;
    std::unique_ptr<MissHistoryTable> history;

    MshrFile mshrs;
    ResourcePool banks;
    ResourcePool bufReadPorts;
    ResourcePool bufWritePorts;
    ResourcePool bus;

    MemStats st;
    MemAccessHook accessHook;
};

} // namespace ccm

#endif // CCM_HIERARCHY_MEMSYS_HH
