/**
 * @file
 * A deliberately naive SHARDS miss-ratio-curve reference, written from
 * the description in sample/mrc.hh for differential tests of
 * sample::buildMrc.
 *
 *  - A memory reference's line is its address with the offset bits
 *    cleared; the line is sampled iff its bucket (the sampling hash,
 *    common/sample_hash.hh) is below the threshold T, the rate being
 *    T / 2^24.
 *  - Each curve point of C bytes is one LRU list holding at most
 *    floor((C / line) * T / 2^24) lines; a sampled reference misses
 *    the point unless its line is in the list, and weighs 1 / rate.
 *  - Fixed-size: once more than maxSampledLines distinct lines are
 *    tracked, T halves, every tracked line whose bucket is at or above
 *    the new T leaves the tracked set and every list, and each list is
 *    cut to its new capacity from the LRU end.
 *  - A pass that ends with fewer than minSampledLines lines, below
 *    rate 1, runs once more at the boosted rate.
 *  - Windows of windowRefs memory references carry the sampled
 *    references, per-point misses, first-seen and distinct lines that
 *    fall inside them.
 *
 * Every list is a std::list searched front to back, every set a
 * std::set: it shares no code with sample/mrc.cc.
 */

#ifndef CCM_TESTS_REF_MRC_REF_HH
#define CCM_TESTS_REF_MRC_REF_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "common/sample_hash.hh"
#include "sample/mrc.hh"
#include "trace/record.hh"

namespace ccm::ref
{

/** One curve point of the reference. */
struct RefMrcPoint
{
    std::size_t capacityLines = 0;
    std::size_t bankLines = 0;
    Count misses = 0;
    double weightedMisses = 0.0;
    double missRatio = 0.0;
};

/** One window of the reference. */
struct RefMrcWindow
{
    Count firstRef = 0;
    Count lastRef = 0;
    Count sampledRefs = 0;
    std::vector<Count> misses;
    Count newLines = 0;
    Count uniqueLines = 0;
};

/** Everything the reference computes for one configuration. */
struct RefMrc
{
    std::vector<RefMrcPoint> points;
    Count totalRefs = 0;
    Count sampledRefs = 0;
    Count linesSampled = 0;
    double weightedRefs = 0.0;
    double finalRate = 0.0;
    unsigned halvings = 0;
    bool boosted = false;
    std::vector<RefMrcWindow> windows;
};

/**
 * One pass of @p records at threshold @p threshold under @p cfg, whose
 * capacitiesBytes must be set.
 */
inline RefMrc
refMrcPass(const std::vector<MemRecord> &records,
           const sample::MrcConfig &cfg, std::uint64_t threshold)
{
    const double modulus = 16777216.0; // 2^24
    const SamplingPredicate hash =
        SamplingPredicate::make(1.0, cfg.seed).value();

    RefMrc out;
    std::vector<std::list<Addr>> lists(cfg.capacitiesBytes.size());
    for (std::size_t c : cfg.capacitiesBytes) {
        RefMrcPoint p;
        p.capacityLines = c / cfg.lineBytes;
        out.points.push_back(p);
    }
    auto resize = [&] {
        for (std::size_t i = 0; i < lists.size(); ++i) {
            out.points[i].bankLines = static_cast<std::size_t>(
                static_cast<std::uint64_t>(out.points[i].capacityLines) *
                threshold / 16777216u);
            while (lists[i].size() > out.points[i].bankLines)
                lists[i].pop_back();
        }
    };
    resize();

    std::map<Addr, std::uint64_t> tracked; // line -> bucket
    std::set<Addr> ever;
    std::set<Addr> in_window;
    RefMrcWindow window;
    std::vector<Count> misses_before(lists.size(), 0);
    Count sampled_before = 0;
    auto close = [&](Count last) {
        window.firstRef =
            out.windows.empty() ? 1 : out.windows.back().lastRef + 1;
        window.lastRef = last;
        window.sampledRefs = out.sampledRefs - sampled_before;
        sampled_before = out.sampledRefs;
        for (std::size_t i = 0; i < lists.size(); ++i) {
            window.misses.push_back(out.points[i].misses -
                                    misses_before[i]);
            misses_before[i] = out.points[i].misses;
        }
        window.uniqueLines = in_window.size();
        out.windows.push_back(window);
        window = RefMrcWindow();
        in_window.clear();
    };

    Count ordinal = 0;
    for (const MemRecord &r : records) {
        if (!r.isMem())
            continue;
        ++ordinal;
        const Addr line = r.addr - r.addr % cfg.lineBytes;
        // A window ends at each multiple of windowRefs.
        if (cfg.windowRefs != 0 && ordinal > 1 &&
            (ordinal - 1) % cfg.windowRefs == 0)
            close(ordinal - 1);
        const std::uint64_t bucket = hash.bucketOf(LineAddr{line});
        if (bucket >= threshold)
            continue;

        const double weight =
            1.0 / (static_cast<double>(threshold) / modulus);
        ++out.sampledRefs;
        out.weightedRefs += weight;
        if (tracked.count(line) == 0) {
            tracked[line] = bucket;
            ++window.newLines;
        }
        ever.insert(line);
        in_window.insert(line);

        for (std::size_t i = 0; i < lists.size(); ++i) {
            std::list<Addr> &l = lists[i];
            const auto it = std::find(l.begin(), l.end(), line);
            const bool hit = out.points[i].bankLines > 0 && it != l.end();
            if (it != l.end())
                l.erase(it);
            if (!hit) {
                ++out.points[i].misses;
                out.points[i].weightedMisses += weight;
            }
            l.push_front(line);
            while (l.size() > out.points[i].bankLines)
                l.pop_back();
        }

        if (cfg.variant == sample::ShardsVariant::FixedSize &&
            tracked.size() > cfg.maxSampledLines && threshold > 1) {
            threshold /= 2;
            ++out.halvings;
            for (auto it = tracked.begin(); it != tracked.end();) {
                if (it->second >= threshold) {
                    for (std::list<Addr> &l : lists)
                        l.remove(it->first);
                    it = tracked.erase(it);
                } else {
                    ++it;
                }
            }
            resize();
        }
    }
    out.totalRefs = ordinal;
    if (cfg.windowRefs != 0 && ordinal > 0)
        close(ordinal);

    out.linesSampled = ever.size();
    out.finalRate = static_cast<double>(threshold) / modulus;
    const double denom = cfg.rateCorrection
                             ? static_cast<double>(out.totalRefs)
                             : out.weightedRefs;
    for (RefMrcPoint &p : out.points)
        p.missRatio = denom > 0.0
                          ? std::clamp(p.weightedMisses / denom, 0.0, 1.0)
                          : 0.0;
    return out;
}

/**
 * The reference curve of @p records under @p cfg: one pass at the
 * configured rate, and the boosted re-run when the sample holds too
 * few lines.
 */
inline RefMrc
refMrc(const std::vector<MemRecord> &records,
       const sample::MrcConfig &cfg)
{
    auto threshold = [](double rate) {
        return SamplingPredicate::make(rate, 0).value().threshold();
    };
    RefMrc out = refMrcPass(records, cfg, threshold(cfg.rate));
    if (cfg.minSampledLines > 0 &&
        out.linesSampled < cfg.minSampledLines && out.finalRate < 1.0) {
        const double lines = static_cast<double>(
            std::max<Count>(1, out.linesSampled));
        const double grow = std::max(
            2.0, 2.0 * static_cast<double>(cfg.minSampledLines) / lines);
        const double rate =
            std::min({1.0, cfg.rate * grow,
                      std::max(cfg.rate, cfg.maxBoostedRate)});
        out = refMrcPass(records, cfg, threshold(rate));
        out.boosted = true;
    }
    return out;
}

} // namespace ccm::ref

#endif // CCM_TESTS_REF_MRC_REF_HH
