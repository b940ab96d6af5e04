#include "mct/classify_run.hh"

#include <array>

#include "mct/oracle.hh"
#include "trace/batch_reader.hh"

namespace ccm
{

ClassifyResult
classifyRun(TraceSource &trace, const ClassifyConfig &cfg)
{
    ClassifyKernel kernel(cfg);
    const CacheGeometry &geom = kernel.geometry();
    OracleClassifier oracle(geom.numLines());

    ClassifyResult res;

    trace.reset();
    // Loop-driven pipeline: pull fixed-size batches and walk them in
    // place (no per-record copy-out), the hot-path delivery shape.
    std::array<MemRecord, maxTraceBatch> buf;
    for (std::size_t n; (n = trace.nextBatch(buf.data(), buf.size())) > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
            const MemRecord &r = buf[i];
            if (!r.isMem())
                continue;
            ++res.references;

            const ByteAddr addr = r.dataAddr();
            const bool hit = kernel.access(addr, r.isStore());
            const MissClass oracle_cls =
                oracle.observe(geom.lineOf(addr), !hit);
            if (hit)
                continue;

            ++res.misses;
            const MissClass mct_cls = kernel.miss(addr, r.isStore());
            res.scorer.record(mct_cls, oracle_cls);
        }
    }

    res.missRate = safeRatio(res.misses, res.references);
    return res;
}

} // namespace ccm
