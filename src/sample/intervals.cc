#include "sample/intervals.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.hh"

namespace ccm::sample
{

namespace
{

/** z-scored feature vectors, one per window. */
std::vector<std::vector<double>>
windowFeatures(const MrcResult &mrc)
{
    const std::size_t n = mrc.windows.size();
    const std::size_t pts = mrc.points.size();
    const std::size_t dims = pts + 3;

    std::vector<std::vector<double>> feat(
        n, std::vector<double>(dims, 0.0));
    for (std::size_t w = 0; w < n; ++w) {
        const WindowSignature &sig = mrc.windows[w];
        const double sampled =
            std::max<double>(1.0, static_cast<double>(sig.sampledRefs));
        const double len = std::max<double>(
            1.0,
            static_cast<double>(sig.lastRef - sig.firstRef + 1));
        for (std::size_t p = 0; p < pts; ++p)
            feat[w][p] =
                static_cast<double>(sig.sampledMisses[p]) / sampled;
        feat[w][pts] = static_cast<double>(sig.sampledRefs) / len;
        feat[w][pts + 1] =
            static_cast<double>(sig.sampledNewLines) / sampled;
        feat[w][pts + 2] =
            static_cast<double>(sig.sampledUniqueLines) / sampled;
    }

    // z-score each dimension; constant dimensions carry no signal
    // and are zeroed rather than divided by ~0.
    for (std::size_t d = 0; d < dims; ++d) {
        double mean = 0.0;
        for (std::size_t w = 0; w < n; ++w)
            mean += feat[w][d];
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (std::size_t w = 0; w < n; ++w) {
            const double dd = feat[w][d] - mean;
            var += dd * dd;
        }
        const double sd = std::sqrt(var / static_cast<double>(n));
        for (std::size_t w = 0; w < n; ++w)
            feat[w][d] = sd > 1e-12 ? (feat[w][d] - mean) / sd : 0.0;
    }
    return feat;
}

double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

/**
 * One deterministic Lloyd's k-means run: Pcg32-seeded distinct
 * initial centers, lowest-index tie-breaks, fixed iteration cap.
 * @return per-window cluster assignment in [0, k).
 */
std::vector<std::size_t>
kmeansOnce(const std::vector<std::vector<double>> &feat,
           std::size_t k, const IntervalConfig &cfg,
           std::uint64_t stream)
{
    const std::size_t n = feat.size();
    Pcg32 rng(cfg.seed, stream);

    // Distinct initial centers (k <= n guaranteed by caller).
    std::vector<std::size_t> center_idx;
    while (center_idx.size() < k) {
        const std::size_t pick =
            rng.below(static_cast<std::uint32_t>(n));
        if (std::find(center_idx.begin(), center_idx.end(), pick) ==
            center_idx.end())
            center_idx.push_back(pick);
    }
    std::vector<std::vector<double>> centers;
    centers.reserve(k);
    for (std::size_t c : center_idx)
        centers.push_back(feat[c]);

    std::vector<std::size_t> assign(n, 0);
    for (unsigned iter = 0; iter < cfg.maxIters; ++iter) {
        bool changed = false;
        for (std::size_t w = 0; w < n; ++w) {
            std::size_t best = 0;
            double best_d = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < k; ++c) {
                const double d = dist2(feat[w], centers[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (assign[w] != best) {
                assign[w] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;

        // Recompute centroids; re-seed an emptied cluster with the
        // window farthest from its current center (lowest index on
        // ties) so k clusters survive.
        std::vector<std::size_t> sizes(k, 0);
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(feat[0].size(), 0.0));
        for (std::size_t w = 0; w < n; ++w) {
            ++sizes[assign[w]];
            for (std::size_t d = 0; d < feat[w].size(); ++d)
                sums[assign[w]][d] += feat[w][d];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (sizes[c] == 0) {
                std::size_t far_w = 0;
                double far_d = -1.0;
                for (std::size_t w = 0; w < n; ++w) {
                    const double d =
                        dist2(feat[w], centers[assign[w]]);
                    if (d > far_d) {
                        far_d = d;
                        far_w = w;
                    }
                }
                centers[c] = feat[far_w];
                continue;
            }
            for (std::size_t d = 0; d < sums[c].size(); ++d)
                centers[c][d] =
                    sums[c][d] / static_cast<double>(sizes[c]);
        }
    }
    return assign;
}

/** Total within-cluster squared distance of an assignment. */
double
inertia(const std::vector<std::vector<double>> &feat,
        const std::vector<std::size_t> &assign, std::size_t k)
{
    std::vector<std::vector<double>> mean(
        k, std::vector<double>(feat[0].size(), 0.0));
    std::vector<std::size_t> sizes(k, 0);
    for (std::size_t w = 0; w < feat.size(); ++w) {
        ++sizes[assign[w]];
        for (std::size_t d = 0; d < feat[w].size(); ++d)
            mean[assign[w]][d] += feat[w][d];
    }
    for (std::size_t c = 0; c < k; ++c)
        if (sizes[c] > 0)
            for (double &v : mean[c])
                v /= static_cast<double>(sizes[c]);
    double total = 0.0;
    for (std::size_t w = 0; w < feat.size(); ++w)
        total += dist2(feat[w], mean[assign[w]]);
    return total;
}

/**
 * Multi-restart k-means: Lloyd's is sensitive to its initial centers
 * on sparse sampled signatures — a single unlucky init merges distinct
 * phases and silently biases the whole reconstruction.  Run a fixed
 * set of deterministic restarts (distinct Pcg32 streams) and keep the
 * lowest-inertia assignment; first wins on ties.
 */
std::vector<std::size_t>
kmeansAssign(const std::vector<std::vector<double>> &feat,
             std::size_t k, const IntervalConfig &cfg)
{
    constexpr std::uint64_t kRestarts = 8;
    std::vector<std::size_t> best;
    double best_inertia = std::numeric_limits<double>::infinity();
    for (std::uint64_t r = 0; r < kRestarts; ++r) {
        std::vector<std::size_t> assign =
            kmeansOnce(feat, k, cfg, 7 + r);
        const double in = inertia(feat, assign, k);
        if (in < best_inertia) {
            best_inertia = in;
            best = std::move(assign);
        }
    }
    return best;
}

/** Scalar signature of one window: total sampled miss rate. */
double
windowScalar(const WindowSignature &sig)
{
    Count total = 0;
    for (Count m : sig.sampledMisses)
        total += m;
    const double sampled =
        std::max<double>(1.0, static_cast<double>(sig.sampledRefs));
    return static_cast<double>(total) / sampled;
}

/**
 * Run records [begin, end) through @p kernel, counting into @p out.
 * @return memory references simulated.
 */
Count
replaySpan(ClassifyKernel &kernel, const MemRecord *records,
           std::size_t begin, std::size_t end, MemStats &out)
{
    Count simulated = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (!records[i].isMem())
            continue;
        ++simulated;
        classifyCounted(kernel, records[i].dataAddr(),
                        records[i].isStore(), out);
    }
    return simulated;
}

/** Record index that puts ~@p warmup memory refs before @p begin. */
std::size_t
warmupStart(const MemRecord *records, std::size_t begin, Count warmup)
{
    std::size_t i = begin;
    Count seen = 0;
    while (i > 0 && seen < warmup) {
        --i;
        if (records[i].isMem())
            ++seen;
    }
    return i;
}

} // namespace

const StatEstimate *
IntervalResult::find(const std::string &name) const
{
    for (const StatEstimate &s : stats) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

Expected<IntervalResult>
reconstructFromIntervals(const MemRecord *records, std::size_t count,
                         const MrcResult &mrc,
                         const ShardedClassifyConfig &cache_cfg,
                         const IntervalConfig &cfg)
{
    if (mrc.windowRefs == 0 || mrc.windows.empty())
        return Status::badConfig(
            "interval selection needs an MRC pass with windowRefs > "
            "0 (no window signatures present)");
    if (cfg.k == 0)
        return Status::badConfig("interval count k must be >= 1");
    Status geom_ok = cache_cfg.validate();
    if (!geom_ok.isOk())
        return geom_ok.withContext("interval replay geometry");
    for (const WindowSignature &sig : mrc.windows) {
        if (sig.recordEnd > count || sig.recordBegin > sig.recordEnd)
            return Status::internal(
                "window record span [", sig.recordBegin, ", ",
                sig.recordEnd, ") exceeds the ", count,
                "-record trace — was the MRC built on this span?");
    }

    const std::size_t n = mrc.windows.size();
    const std::size_t k = std::min(cfg.k, n);

    IntervalResult res;
    res.windows = n;
    res.clusters = k;
    res.windowRefs = mrc.windowRefs;
    res.totalRefs = mrc.totalRefs;

    // Cluster the cheap signatures (every window its own cluster
    // when k == n — degenerate but exact).  Window 0 is always its
    // own singleton cluster: the cold-start window carries the
    // trace's first-touch misses (all classified capacity by an
    // empty MCT), and averaging it into a steady-state cluster
    // systematically underpredicts capacity misses.
    const std::vector<std::vector<double>> feat =
        windowFeatures(mrc);
    std::vector<std::size_t> assign;
    if (k == n) {
        assign.resize(n);
        for (std::size_t w = 0; w < n; ++w)
            assign[w] = w;
    } else if (k >= 2) {
        const std::vector<std::vector<double>> rest(
            feat.begin() + 1, feat.end());
        const std::vector<std::size_t> sub =
            kmeansAssign(rest, k - 1, cfg);
        assign.resize(n);
        assign[0] = 0;
        for (std::size_t w = 1; w < n; ++w)
            assign[w] = sub[w - 1] + 1;
    } else {
        assign.assign(n, 0);
    }
    for (std::size_t c = 0; c < k; ++c) {
        std::vector<std::size_t> members;
        for (std::size_t w = 0; w < n; ++w)
            if (assign[w] == c)
                members.push_back(w);
        if (members.empty())
            continue;

        // Within-cluster mean and relative spread of the scalar
        // signature (total sampled miss rate).
        double mean = 0.0;
        for (std::size_t w : members)
            mean += windowScalar(mrc.windows[w]);
        mean /= static_cast<double>(members.size());
        double var = 0.0;
        for (std::size_t w : members) {
            const double d = windowScalar(mrc.windows[w]) - mean;
            var += d * d;
        }
        const double sd =
            std::sqrt(var / static_cast<double>(members.size()));
        const double rel =
            mean > 1e-12 ? std::min(1.0, sd / mean) : 0.0;

        // The representative is the member whose RAW per-capacity
        // sampled miss-rate vector is closest to the cluster mean
        // (lowest index on ties).  The stratified estimator weights
        // the medoid's replayed rates by the whole cluster, so the
        // medoid must match the cluster's mean intensity at every
        // capacity — z-scored feature distance (what k-means itself
        // uses) lets profile *shape* dominate and systematically
        // picks quiet windows, biasing miss counters low.
        const std::size_t pts = mrc.points.size();
        auto raw_rates = [&](std::size_t w,
                             std::vector<double> &out) {
            const WindowSignature &s = mrc.windows[w];
            const double sampled = std::max<double>(
                1.0, static_cast<double>(s.sampledRefs));
            for (std::size_t p = 0; p < pts; ++p)
                out[p] =
                    static_cast<double>(s.sampledMisses[p]) / sampled;
            out[pts] =
                static_cast<double>(s.sampledNewLines) / sampled;
            out[pts + 1] =
                static_cast<double>(s.sampledUniqueLines) / sampled;
        };
        std::vector<double> rate_mean(pts + 2, 0.0);
        std::vector<double> rates(pts + 2, 0.0);
        for (std::size_t w : members) {
            raw_rates(w, rates);
            for (std::size_t p = 0; p < rate_mean.size(); ++p)
                rate_mean[p] += rates[p];
        }
        for (double &v : rate_mean)
            v /= static_cast<double>(members.size());

        std::size_t medoid = members[0];
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t w : members) {
            raw_rates(w, rates);
            double d = 0.0;
            for (std::size_t p = 0; p < rate_mean.size(); ++p) {
                const double dd = rates[p] - rate_mean[p];
                d += dd * dd;
            }
            if (d < best) {
                best = d;
                medoid = w;
            }
        }

        RepresentativeWindow rep;
        rep.windowIndex = medoid;
        rep.clusterSize = members.size();
        // Weight by references covered, not window count — the tail
        // window is short, and counting it as a full window skews
        // every reconstructed counter by the shortfall.
        Count covered = 0;
        for (std::size_t w : members)
            covered += mrc.windows[w].lastRef -
                       mrc.windows[w].firstRef + 1;
        rep.weight = static_cast<double>(covered) /
                     static_cast<double>(res.totalRefs);
        rep.relSpread = rel;

        const WindowSignature &sig = mrc.windows[medoid];
        rep.firstRef = sig.firstRef;
        rep.lastRef = sig.lastRef;
        rep.refs = sig.lastRef - sig.firstRef + 1;

        // The warmup prefix populates the cold cache/MCT; its
        // counters are discarded.
        const std::size_t warm = warmupStart(
            records, sig.recordBegin, cfg.warmupRefs);
        ClassifyKernel kernel(cache_cfg);
        MemStats warmup;
        res.replayedRefs +=
            replaySpan(kernel, records, warm, sig.recordBegin, warmup);
        res.replayedRefs += replaySpan(kernel, records, sig.recordBegin,
                                       sig.recordEnd, rep.delta);
        res.reps.push_back(std::move(rep));
    }

    // Stratified reconstruction per counter, with error bars.
    const double total = static_cast<double>(res.totalRefs);
    MemStats::forEachField([&](const char *name,
                               Count MemStats::*f) {
        StatEstimate est;
        est.name = name;
        double var = 0.0;
        for (const RepresentativeWindow &rep : res.reps) {
            if (rep.refs == 0)
                continue;
            const double rate =
                static_cast<double>(rep.delta.*f) /
                static_cast<double>(rep.refs);
            const double part = rep.weight * rate * total;
            est.predicted += part;
            var += (part * rep.relSpread) * (part * rep.relSpread);
        }
        est.errorBar = 1.96 * std::sqrt(var);
        res.predicted.*f =
            static_cast<Count>(std::llround(est.predicted));
        res.stats.push_back(std::move(est));
    });

    return res;
}

} // namespace ccm::sample
