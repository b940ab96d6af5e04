#include "sample/mrc.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <unordered_map>

#include "cache/fa_lru.hh"
#include "cache/geometry.hh"
#include "common/sample_hash.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "trace/batch_reader.hh"
#include "trace/vector_trace.hh"

namespace ccm::sample
{

namespace
{

/** Distinct lines ever admitted into a sample set. */
obs::Counter &
linesSampledCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::global().counter(
        "ccm_sample_lines_sampled_total",
        "Distinct lines admitted by the SHARDS sampling predicate");
    return c;
}

/** Final sampling rate of the most recent MRC pass, in ppm. */
obs::Gauge &
sampleRateGauge()
{
    static obs::Gauge &g = obs::MetricsRegistry::global().gauge(
        "ccm_sample_rate",
        "Effective sampling rate of the last MRC pass (parts per "
        "million)");
    return g;
}

/** Wall time of each MRC construction pass. */
obs::Histogram &
mrcBuildHistogram()
{
    static obs::Histogram &h = obs::MetricsRegistry::global().histogram(
        "ccm_sample_mrc_build_us",
        "Wall time of one SHARDS miss-ratio-curve construction pass");
    return h;
}

/**
 * One curve point's threshold test: an FaLru holding the top
 * floor(capacityLines * rate) entries of the sampled LRU stack.  A
 * sampled reference misses at true capacity C iff its sampled stack
 * distance d satisfies d > C*R; distances are integers, so the test
 * is exactly "not within the top floor(C*R)" — bank capacity 0 means
 * every reference misses (C*R < 1: the scaled cache can't hold even
 * one line).
 */
struct Bank
{
    std::size_t capacityLines = 0;
    std::size_t effLines = 0; ///< current scaled capacity
    Count sampledMisses = 0;
    double weightedMisses = 0.0;
    /** Hard capacity = scaled size at the initial (highest) rate. */
    std::unique_ptr<FaLru> lru;

    /** Access @p line with weight @p w; count the miss if any. */
    void
    access(LineAddr line, double w)
    {
        const bool hit =
            effLines > 0 && lru != nullptr && lru->touchOrInsert(line);
        if (!hit) {
            ++sampledMisses;
            weightedMisses += w;
        }
        trim();
    }

    /** Drop LRU entries beyond the current scaled capacity. */
    void
    trim()
    {
        if (lru == nullptr)
            return;
        while (lru->size() > effLines) {
            auto victim = lru->lruLine();
            if (!victim)
                break;
            lru->erase(*victim);
        }
    }

    /** Remove one purged line (threshold halving). */
    void
    drop(LineAddr line)
    {
        if (lru != nullptr)
            lru->erase(line);
    }
};

/** floor(lines * T / P), in exact integer arithmetic. */
std::size_t
scaledLines(std::size_t lines, std::uint64_t threshold)
{
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(lines) * threshold) /
        SamplingPredicate::kModulus);
}

Status
validateConfig(const MrcConfig &cfg,
               const std::vector<std::size_t> &capacities)
{
    Status geom = CacheGeometry::validate(cfg.lineBytes, 1,
                                          cfg.lineBytes);
    if (!geom.isOk())
        return geom.withContext("mrc line size");
    if (capacities.empty())
        return Status::badConfig("mrc capacity grid is empty");
    std::size_t prev = 0;
    for (std::size_t c : capacities) {
        if (c < cfg.lineBytes || c % cfg.lineBytes != 0)
            return Status::badConfig(
                "mrc capacity ", c,
                " is not a positive multiple of the ", cfg.lineBytes,
                "-byte line");
        if (c <= prev)
            return Status::badConfig(
                "mrc capacities must be strictly ascending (", c,
                " after ", prev, ")");
        prev = c;
    }
    if (cfg.variant == ShardsVariant::FixedSize &&
        cfg.maxSampledLines == 0)
        return Status::badConfig(
            "fixed-size sampling needs maxSampledLines > 0");
    return Status::ok();
}

} // namespace

const char *
toString(ShardsVariant v)
{
    switch (v) {
      case ShardsVariant::FixedRate: return "fixed-rate";
      case ShardsVariant::FixedSize: return "fixed-size";
    }
    return "?";
}

std::vector<std::size_t>
defaultCapacities()
{
    std::vector<std::size_t> sizes;
    for (std::size_t kb = 16; kb <= 8192; kb *= 2)
        sizes.push_back(kb * 1024);
    return sizes;
}

double
MrcResult::missRatioAt(std::size_t capacity_bytes) const
{
    for (const MrcPoint &p : points) {
        if (p.capacityBytes >= capacity_bytes)
            return p.missRatio;
    }
    return points.empty() ? 0.0 : points.back().missRatio;
}

void
touchSampleMetrics()
{
    linesSampledCounter();
    sampleRateGauge();
    mrcBuildHistogram();
}

namespace
{

std::vector<std::size_t>
capacitiesOf(const MrcConfig &cfg)
{
    return cfg.capacitiesBytes.empty() ? defaultCapacities()
                                       : cfg.capacitiesBytes;
}

/**
 * Validate @p cfg.  @return the admission test of its scan: the
 * highest rate any pass runs at, the configured rate raised to the
 * boost cap.
 */
Expected<SamplingPredicate>
admissionCap(const MrcConfig &cfg)
{
    Status ok = validateConfig(cfg, capacitiesOf(cfg));
    if (!ok.isOk())
        return ok;
    auto pred = SamplingPredicate::make(cfg.rate, cfg.seed);
    if (!pred.ok())
        return pred.status();
    return SamplingPredicate::make(
        std::min(1.0, std::max(cfg.rate, cfg.maxBoostedRate)),
        cfg.seed);
}

/** A fixed-size threshold halving, as each bank replays it. */
struct Halving
{
    Count after = 0; ///< admitted references before it takes effect
    std::uint64_t threshold = 0; ///< the halved threshold
    std::vector<Addr> purged;    ///< the lines that fell out of the sample
};

/**
 * Lane 0 of a pass: everything but the banks.  Walks @p stream once
 * at @p sampler's threshold, fills @p res's reference and line counts,
 * final rate and windows (their sampledMisses still empty), and
 * returns the halving schedule the banks replay (empty for
 * fixed-rate).
 */
std::vector<Halving>
trackLines(const SampledStream &stream, const MrcConfig &cfg,
           SamplingPredicate sampler, MrcResult &res)
{
    std::vector<Halving> schedule;

    // Tracked sampled lines -> admission bucket (so a threshold
    // halving can purge exactly the lines that fell out of the
    // sample) + last-window stamp (per-window footprint counting).
    // AddrMixHash spreads the line-strided keys.
    struct TrackedLine
    {
        std::uint32_t bucket;
        std::uint32_t window; ///< 1-based stamp; 0 = not this window
    };
    std::unordered_map<Addr, TrackedLine, AddrMixHash> tracked;

    // Window bookkeeping (cfg.windowRefs > 0 only).  A window closes
    // at its ordinal boundary whether or not a sampled reference fell
    // inside it.
    Count last_boundary = 0;
    Count window_sampled_base = 0;
    Count window_new_lines = 0;
    Count window_unique_lines = 0;
    auto emitWindow = [&](Count upto) {
        WindowSignature w;
        w.firstRef = last_boundary + 1;
        w.lastRef = upto;
        w.sampledRefs = res.sampledRefs - window_sampled_base;
        window_sampled_base = res.sampledRefs;
        w.sampledNewLines = window_new_lines;
        w.sampledUniqueLines = window_unique_lines;
        window_new_lines = 0;
        window_unique_lines = 0;
        res.windows.push_back(std::move(w));
        last_boundary = upto;
    };
    // 0 disables windows; the sentinel is never below an ordinal.
    Count next_window_boundary =
        cfg.windowRefs != 0 ? cfg.windowRefs
                            : std::numeric_limits<Count>::max();
    auto emitWindowsBefore = [&](Count ordinal) {
        while (next_window_boundary < ordinal) {
            emitWindow(next_window_boundary);
            next_window_boundary += cfg.windowRefs;
        }
    };

    double weight = 1.0 / sampler.rate();

    for (const std::vector<SampledRef> &segment : stream.segments) {
        for (const SampledRef &ref : segment) {
            if (ref.bucket >= sampler.threshold())
                continue;
            emitWindowsBefore(ref.ordinal);

            ++res.sampledRefs;
            res.weightedRefs += weight;

            const std::uint32_t stamp =
                static_cast<std::uint32_t>(res.windows.size() + 1);
            auto [it, inserted] =
                tracked.emplace(ref.line, TrackedLine{ref.bucket, stamp});
            if (inserted) {
                ++res.linesSampled;
                ++window_new_lines;
                ++window_unique_lines;
            } else if (it->second.window != stamp) {
                it->second.window = stamp;
                ++window_unique_lines;
            }

            // Fixed-size: over budget -> halve the threshold and purge
            // the lines that fell out of the sample.
            if (cfg.variant == ShardsVariant::FixedSize &&
                tracked.size() > cfg.maxSampledLines &&
                sampler.threshold() > 1) {
                Halving h{res.sampledRefs, sampler.threshold() / 2, {}};
                sampler.lowerThreshold(h.threshold);
                ++res.thresholdHalvings;
                weight = 1.0 / sampler.rate();
                for (auto it2 = tracked.begin(); it2 != tracked.end();) {
                    if (it2->second.bucket >= h.threshold) {
                        h.purged.push_back(it2->first);
                        it2 = tracked.erase(it2);
                    } else {
                        ++it2;
                    }
                }
                schedule.push_back(std::move(h));
            }
        }
    }
    if (cfg.windowRefs != 0) {
        emitWindowsBefore(res.totalRefs + 1);
        if (res.totalRefs > last_boundary)
            emitWindow(res.totalRefs);
    }
    res.finalRate = sampler.rate();
    return schedule;
}

/**
 * One bank's lane: the bank, and its misses at the end of each window
 * that closed before its last admitted reference (every later window
 * ends at the bank's final count).
 */
struct BankRun
{
    Bank bank; ///< its LRU released once the lane ends
    std::vector<Count> missesAtWindowEnd;

    Count
    missesAtEndOf(std::size_t window) const
    {
        return window < missesAtWindowEnd.size()
                   ? missesAtWindowEnd[window]
                   : bank.sampledMisses;
    }
};

/**
 * One bank's lane of a pass: the references lane 0 admits, replayed
 * against a bank of @p capacity_lines lines, with @p schedule's drops
 * and trims applied after the admitted reference each follows.
 * Weights are added in stream order, as a single walk adds them.
 */
BankRun
replayBank(const SampledStream &stream, const MrcConfig &cfg,
           std::size_t capacity_lines, SamplingPredicate sampler,
           const std::vector<Halving> &schedule)
{
    BankRun run;
    Bank &b = run.bank;
    b.capacityLines = capacity_lines;
    b.effLines = scaledLines(b.capacityLines, sampler.threshold());
    if (b.effLines > 0)
        b.lru = std::make_unique<FaLru>(b.effLines);
    Count next_window_boundary =
        cfg.windowRefs != 0 ? cfg.windowRefs
                            : std::numeric_limits<Count>::max();
    double weight = 1.0 / sampler.rate();
    Count admitted = 0;
    auto next_halving = schedule.begin();

    for (const std::vector<SampledRef> &segment : stream.segments) {
        for (const SampledRef &ref : segment) {
            if (ref.bucket >= sampler.threshold())
                continue;
            while (next_window_boundary < ref.ordinal) {
                run.missesAtWindowEnd.push_back(b.sampledMisses);
                next_window_boundary += cfg.windowRefs;
            }
            b.access(LineAddr{ref.line}, weight);
            ++admitted;
            if (next_halving != schedule.end() &&
                next_halving->after == admitted) {
                sampler.lowerThreshold(next_halving->threshold);
                weight = 1.0 / sampler.rate();
                for (Addr line : next_halving->purged)
                    b.drop(LineAddr{line});
                b.effLines =
                    scaledLines(b.capacityLines, sampler.threshold());
                b.trim();
                ++next_halving;
            }
        }
    }
    b.lru.reset();
    return run;
}

/**
 * One sampling pass with @p sampler over @p stream; cfg pre-validated.
 * Lane 0 (trackLines) and one lane per curve point (replayBank) run
 * on their own threads.  A fixed-rate pass never halves, so its bank
 * lanes need nothing from lane 0 and all lanes start at once; a
 * fixed-size pass runs lane 0 first for its halving schedule.
 */
MrcResult
buildMrcPass(const SampledStream &stream, const MrcConfig &cfg,
             const std::vector<std::size_t> &capacities,
             SamplingPredicate sampler)
{
    MrcResult res;
    res.totalRefs = stream.totalRefs;
    res.configuredRate = sampler.rate();
    res.seed = cfg.seed;
    res.lineBytes = cfg.lineBytes;
    res.variant = cfg.variant;
    res.rateCorrected = cfg.rateCorrection;
    res.windowRefs = cfg.windowRefs;
    res.checkpoints = stream.checkpoints;

    std::vector<Halving> schedule;
    std::vector<BankRun> banks(capacities.size());
    auto bank = [&](std::size_t i) {
        banks[i] = replayBank(stream, cfg, capacities[i] / cfg.lineBytes,
                              sampler, schedule);
    };
    if (cfg.variant == ShardsVariant::FixedRate) {
        forEachIndex(banks.size() + 1, 0, [&](std::size_t lane) {
            if (lane == 0)
                trackLines(stream, cfg, sampler, res);
            else
                bank(lane - 1);
        });
    } else {
        schedule = trackLines(stream, cfg, sampler, res);
        forEachIndex(banks.size(), 0, bank);
    }

    // Each window's misses per point: the bank's count at the
    // window's end less its count at the one before.
    for (std::size_t w = 0; w < res.windows.size(); ++w) {
        std::vector<Count> &misses = res.windows[w].sampledMisses;
        misses.reserve(banks.size());
        for (const BankRun &b : banks)
            misses.push_back(b.missesAtEndOf(w) -
                             (w > 0 ? b.missesAtEndOf(w - 1) : 0));
    }

    // Rate correction: misses are measured; the reference mass is
    // corrected to its expectation (N for weighted units), so an
    // unlucky sample shifts hits, not the measured miss weight.
    const double total = static_cast<double>(res.totalRefs);
    for (std::size_t i = 0; i < banks.size(); ++i) {
        const Bank &b = banks[i].bank;
        MrcPoint p;
        p.capacityBytes = capacities[i];
        p.capacityLines = b.capacityLines;
        p.bankLines = b.effLines;
        p.sampledMisses = b.sampledMisses;
        const double denom =
            cfg.rateCorrection ? total : res.weightedRefs;
        const double mr = denom > 0.0 ? b.weightedMisses / denom : 0.0;
        p.missRatio = std::clamp(mr, 0.0, 1.0);
        res.points.push_back(p);
    }
    return res;
}

} // namespace

namespace
{

/** What the scan keeps of one chunk, ordinals counted from its start. */
struct ChunkScan
{
    Count refs = 0;
    std::vector<SampledRef> sampled;
    std::vector<TraceCheckpoint> checkpoints;
};

/** The scan's admission test, applied one batch at a time. */
class Admitter
{
  public:
    Admitter(const SamplingPredicate &pred, unsigned line_bytes)
        : pred_(pred), lineGeom_(line_bytes, 1, line_bytes)
    {}

    void
    add(const MemRecord *batch, std::size_t n, ChunkScan &out) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (!batch[i].isMem())
                continue;
            ++out.refs;
            const LineAddr line = lineGeom_.lineOf(batch[i].dataAddr());
            const std::uint64_t bucket = pred_.bucketOf(line);
            if (bucket < pred_.threshold())
                out.sampled.push_back({line.value(), out.refs,
                                       static_cast<std::uint32_t>(bucket)});
        }
    }

  private:
    const SamplingPredicate &pred_;
    CacheGeometry lineGeom_;
};

/**
 * Scan one piece of the trace.  A piece read through a view gets a
 * checkpoint at its start and then every kCheckpointRefs references,
 * each where a batch that holds records starts.
 */
ChunkScan
scanChunk(ChunkReader &reader, const Admitter &admit)
{
    ChunkScan out;
    Count next_checkpoint = 0;
    MemRecord batch[maxTraceBatch];
    for (;;) {
        const TracePosition *at = reader.position();
        const bool mark = at != nullptr && out.refs >= next_checkpoint;
        TraceCheckpoint cp;
        if (mark)
            cp = {out.refs, *at};
        const std::size_t got = reader.read(batch, maxTraceBatch);
        if (got == 0)
            break;
        if (mark) {
            out.checkpoints.push_back(cp);
            next_checkpoint = out.refs + SampledStream::kCheckpointRefs;
        }
        admit.add(batch, got, out);
    }
    return out;
}

} // namespace

Expected<SampledStream>
scanTrace(TraceSource &trace, const MrcConfig &cfg)
{
    auto cap = admissionCap(cfg);
    if (!cap.ok())
        return cap.status();
    const Admitter admit(cap.value(), cfg.lineBytes);

    SampledStream stream;
    stream.threshold = cap.value().threshold();
    stream.seed = cfg.seed;
    stream.lineBytes = cfg.lineBytes;

    std::vector<ChunkScan> scans = mapChunks(
        trace, 0, [&](ChunkReader &r) { return scanChunk(r, admit); });

    // Chunk c's ordinals start after the references of chunks < c.
    stream.segments.reserve(scans.size());
    for (ChunkScan &scan : scans) {
        for (SampledRef &ref : scan.sampled)
            ref.ordinal += stream.totalRefs;
        for (TraceCheckpoint &cp : scan.checkpoints) {
            cp.refs += stream.totalRefs;
            stream.checkpoints.push_back(cp);
        }
        stream.totalRefs += scan.refs;
        stream.segments.push_back(std::move(scan.sampled));
    }
    return stream;
}

Expected<MrcResult>
buildMrc(const SampledStream &stream, const MrcConfig &cfg)
{
    auto cap = admissionCap(cfg);
    if (!cap.ok())
        return cap.status();
    if (stream.seed != cfg.seed || stream.lineBytes != cfg.lineBytes ||
        stream.threshold < cap.value().threshold())
        return Status::internal(
            "sampled stream (seed ", stream.seed, ", ",
            stream.lineBytes, "-byte lines, threshold ",
            stream.threshold, ") cannot serve an MRC pass at seed ",
            cfg.seed, ", ", cfg.lineBytes, "-byte lines, threshold ",
            cap.value().threshold());

    const std::vector<std::size_t> capacities = capacitiesOf(cfg);
    const SamplingPredicate pred =
        SamplingPredicate::make(cfg.rate, cfg.seed).value();
    const auto t0 = std::chrono::steady_clock::now();
    MrcResult res = buildMrcPass(stream, cfg, capacities, pred);

    // Degenerate-footprint guard: spatial sampling is only sound
    // when the sample holds enough distinct lines.  A pass that lands
    // under the floor re-runs once at a proportionally boosted rate —
    // deterministic, and cheap precisely when it triggers (a small
    // footprint means small banks either way).
    if (cfg.minSampledLines > 0 &&
        res.linesSampled < cfg.minSampledLines &&
        res.finalRate < 1.0) {
        const double grow = std::max(
            2.0, 2.0 * static_cast<double>(cfg.minSampledLines) /
                     static_cast<double>(
                         std::max<Count>(1, res.linesSampled)));
        const double cap_rate = std::max(cfg.rate, cfg.maxBoostedRate);
        auto boosted = SamplingPredicate::make(
            std::min({1.0, cfg.rate * grow, cap_rate}), cfg.seed);
        if (boosted.ok()) {
            res = buildMrcPass(stream, cfg, capacities,
                               boosted.value());
            res.configuredRate = pred.rate();
            res.minLinesBoost = true;
        }
    }

    linesSampledCounter().inc(res.linesSampled);
    sampleRateGauge().set(
        static_cast<std::int64_t>(res.finalRate * 1e6));
    mrcBuildHistogram().observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return res;
}

Expected<MrcResult>
buildMrc(TraceSource &trace, const MrcConfig &cfg)
{
    auto stream = scanTrace(trace, cfg);
    if (!stream.ok())
        return stream.status();
    return buildMrc(stream.value(), cfg);
}

Expected<MrcResult>
buildMrc(const MemRecord *records, std::size_t count,
         const MrcConfig &cfg)
{
    SpanTrace span(records, count);
    return buildMrc(span, cfg);
}

} // namespace ccm::sample
