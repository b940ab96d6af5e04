/**
 * @file
 * Dynamic page-recoloring simulation (§5.6 "Runtime conflict
 * avoidance"): a virtually-addressed workload runs against a
 * physically-indexed cache through a page table whose color bits the
 * "OS" may rewrite when the CML buffer reports hot pages.
 *
 * Each epoch, pages whose (optionally conflict-only) miss count
 * crosses a threshold are re-colored to the currently least-loaded
 * cache color, at a configurable page-copy cost.  Comparing
 * count-all-misses against count-conflict-misses-only reproduces the
 * paper's argument: classification avoids useless reallocations when
 * the misses are capacity misses.
 */

#ifndef CCM_REMAP_REMAP_SIM_HH
#define CCM_REMAP_REMAP_SIM_HH

#include <unordered_map>
#include <vector>

#include "common/addr_types.hh"
#include "common/types.hh"
#include "mct/classify_kernel.hh"
#include "remap/cml.hh"
#include "trace/source.hh"

namespace ccm
{

/** Configuration of the recoloring experiment. */
struct RemapConfig
{
    std::size_t cacheBytes = 16 * 1024;
    unsigned lineBytes = 64;
    std::size_t pageBytes = 4096;
    /** Poll the CML buffer every this many references. */
    Count epochRefs = 50'000;
    /** Page miss count that triggers a remap candidate. */
    std::uint32_t hotThreshold = 256;
    /** Count only MCT-conflict misses in the CML buffer. */
    bool conflictOnly = true;
    /** Approximate cycles to copy one page on a remap. */
    Cycle remapCostCycles = 4096;
};

/** Results of one recoloring run. */
struct RemapResult
{
    Count references = 0;
    Count misses = 0;
    Count remaps = 0;
    double missRate = 0.0;
    /** Misses plus amortized remap cost, in "miss equivalents"
     *  (remap cost / 100-cycle miss): the figure of merit. */
    double effectiveMissRate = 0.0;
};

/** The recoloring simulator. */
class PageRemapSim
{
  public:
    explicit PageRemapSim(const RemapConfig &config);

    /** Replay @p trace (reset first) with recoloring active. */
    RemapResult run(TraceSource &trace);

    /** Number of distinct cache colors. */
    unsigned colors() const { return numColors; }

  private:
    ByteAddr translate(ByteAddr vaddr);
    void pollAndRemap();

    RemapConfig cfg;
    /** Physically indexed direct-mapped cache + full-tag MCT. */
    ClassifyKernel kernel;
    CmlBuffer cml;

    unsigned numColors;
    /** vpage -> assigned color (mixed hash; see AddrMixHash). */
    std::unordered_map<Addr, unsigned, AddrMixHash> colorOf;
    /** Live page count per color (for least-loaded choice). */
    std::vector<Count> colorLoad;

    Count remaps = 0;
};

} // namespace ccm

#endif // CCM_REMAP_REMAP_SIM_HH
