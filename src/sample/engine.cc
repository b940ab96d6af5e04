#include "sample/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "trace/vector_trace.hh"

namespace ccm::sample
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Expected<SampleReport>
runSampleAnalysis(TraceSource &trace, const SampleRunConfig &cfg)
{
    Status geom_ok = cfg.classify.validate();
    if (!geom_ok.isOk())
        return geom_ok.withContext("classify geometry");

    SampleReport rep;
    MrcConfig mrc_cfg = cfg.mrc;

    const auto t0 = std::chrono::steady_clock::now();
    {
        auto stream = scanTrace(trace, mrc_cfg);
        if (!stream.ok())
            return stream.status().withContext("sampled MRC pass");

        // The interval pillar needs window signatures; default the
        // window to 1/32 of the trace when the caller didn't pick
        // one.
        if (cfg.intervals > 0 && mrc_cfg.windowRefs == 0)
            mrc_cfg.windowRefs =
                std::max<Count>(4096, stream.value().totalRefs / 32);

        auto mrc = buildMrc(stream.value(), mrc_cfg);
        if (!mrc.ok())
            return mrc.status().withContext("sampled MRC pass");
        rep.mrc = mrc.take();
    }

    rep.recommendation =
        recommendGeometry(rep.mrc, cfg.classify.cacheBytes);

    if (cfg.intervals > 0) {
        IntervalConfig icfg = cfg.interval;
        icfg.k = cfg.intervals;
        auto ivl = reconstructFromIntervals(trace, rep.mrc,
                                            cfg.classify, icfg);
        if (!ivl.ok())
            return ivl.status().withContext("interval selection");
        rep.intervals = ivl.take();
        rep.hasIntervals = true;
    }
    rep.wallSecondsSampled = secondsSince(t0);

    if (cfg.compareExact) {
        const auto t1 = std::chrono::steady_clock::now();

        MrcConfig exact_cfg = mrc_cfg;
        exact_cfg.rate = 1.0;
        exact_cfg.variant = ShardsVariant::FixedRate;
        exact_cfg.windowRefs = 0;
        auto stream = scanTrace(trace, exact_cfg);
        if (!stream.ok())
            return stream.status().withContext("exact MRC pass");
        auto exact = buildMrc(stream.value(), exact_cfg);
        if (!exact.ok())
            return exact.status().withContext("exact MRC pass");
        rep.exactMrc = exact.take();

        rep.exactClassify = runShardedClassify(trace, cfg.classify);
        rep.wallSecondsExact = secondsSince(t1);
        rep.hasExact = true;

        double sum = 0.0;
        for (std::size_t i = 0; i < rep.mrc.points.size(); ++i) {
            const double err =
                std::fabs(rep.mrc.points[i].missRatio -
                          rep.exactMrc.points[i].missRatio);
            sum += err;
            rep.mrcMaxError = std::max(rep.mrcMaxError, err);
        }
        rep.mrcMae =
            rep.mrc.points.empty()
                ? 0.0
                : sum / static_cast<double>(rep.mrc.points.size());

        if (rep.hasIntervals) {
            MemStats::forEachField([&](const char *name,
                                       Count MemStats::*f) {
                const Count exact_v = rep.exactClassify.mem.*f;
                if (exact_v == 0)
                    return;
                const StatEstimate *est =
                    rep.intervals.find(name);
                if (est == nullptr)
                    return;
                const double rel =
                    std::fabs(est->predicted -
                              static_cast<double>(exact_v)) /
                    static_cast<double>(exact_v);
                rep.maxStatRelError =
                    std::max(rep.maxStatRelError, rel);
            });
        }
    }

    return rep;
}

Expected<SampleReport>
runSampleAnalysis(const MemRecord *records, std::size_t count,
                  const SampleRunConfig &cfg)
{
    SpanTrace span(records, count);
    return runSampleAnalysis(span, cfg);
}

} // namespace ccm::sample
