/**
 * @file
 * End-to-end tests of the Figure 1/2 measurement path: classifyRun on
 * hand-crafted traces with known conflict/capacity behaviour, and
 * classifyRun and runShardedClassify against a naive model of the
 * cache, the MCT and the three-C oracle (tests/ref/classify_ref.hh)
 * over random geometries and traces.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "common/random.hh"
#include "mct/classify_run.hh"
#include "ref/classify_ref.hh"
#include "sim/sharded.hh"
#include "trace/vector_trace.hh"

namespace ccm
{
namespace
{

/** Two lines one cache-size apart, accessed alternately. */
VectorTrace
pingPongTrace(std::size_t cache_bytes, int iterations)
{
    VectorTrace t({}, {});
    t.setName("pingpong");
    for (int i = 0; i < iterations; ++i) {
        t.pushLoad(0x1000);
        t.pushLoad(0x1000 + cache_bytes);
    }
    return t;
}

/** Sequential sweep over @p lines distinct lines, repeated. */
VectorTrace
streamTrace(std::size_t lines, int passes)
{
    VectorTrace t({}, {});
    t.setName("stream");
    for (int p = 0; p < passes; ++p)
        for (std::size_t i = 0; i < lines; ++i)
            t.pushLoad(0x100000 + i * 64);
    return t;
}

TEST(ClassifyRun, PingPongIsAllConflictAndFullyIdentified)
{
    ClassifyConfig cfg;
    cfg.cacheBytes = 1024;
    VectorTrace t = pingPongTrace(cfg.cacheBytes, 100);
    ClassifyResult res = classifyRun(t, cfg);

    EXPECT_EQ(res.references, 200u);
    EXPECT_EQ(res.misses, 200u);        // DM aliasing: all miss
    // Oracle: all but the first two misses are conflicts.
    EXPECT_EQ(res.scorer.oracleConflicts(), 198u);
    EXPECT_EQ(res.scorer.compulsoryMisses(), 2u);
    // MCT: the warmup miss of each line is capacity, everything after
    // matches the just-evicted tag.
    EXPECT_GT(res.scorer.conflictAccuracy(), 99.0);
    EXPECT_DOUBLE_EQ(res.scorer.capacityAccuracy(), 100.0);
}

TEST(ClassifyRun, StreamingIsAllCapacity)
{
    ClassifyConfig cfg;
    cfg.cacheBytes = 1024;  // 16 lines
    VectorTrace t = streamTrace(64, 5);  // 4x the cache, 5 passes
    ClassifyResult res = classifyRun(t, cfg);

    EXPECT_EQ(res.misses, res.references);  // distinct sets, no reuse
    EXPECT_EQ(res.scorer.oracleConflicts(), 0u);
    // The MCT agrees: nothing matches the last-evicted tag.
    EXPECT_DOUBLE_EQ(res.scorer.capacityAccuracy(), 100.0);
}

TEST(ClassifyRun, ThreeCycleInDmIsMissedByMct)
{
    // A, B, C aliased in one set, accessed cyclically: the oracle
    // calls the steady-state misses conflicts (a fully-associative
    // cache holds all three), but a one-entry MCT never matches — the
    // "needs more associativity than one extra way" case from §3.
    ClassifyConfig cfg;
    cfg.cacheBytes = 1024;
    VectorTrace t({}, {});
    for (int i = 0; i < 100; ++i) {
        t.pushLoad(0x1000);
        t.pushLoad(0x1000 + 1024);
        t.pushLoad(0x1000 + 2048);
    }
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_EQ(res.scorer.oracleConflicts(), 297u);
    EXPECT_LT(res.scorer.conflictAccuracy(), 1.0);
}

TEST(ClassifyRun, ThreeCycleInTwoWayIsCaughtByMct)
{
    // The same 3-cycle against a 2-way cache: now it's a conflict
    // *near*-miss (one extra way would catch it), and the MCT
    // identifies it.
    ClassifyConfig cfg;
    cfg.cacheBytes = 1024;
    cfg.assoc = 2;
    VectorTrace t({}, {});
    for (int i = 0; i < 100; ++i) {
        t.pushLoad(0x1000);
        t.pushLoad(0x1000 + 1024);
        t.pushLoad(0x1000 + 2048);
    }
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_GT(res.scorer.oracleConflicts(), 290u);
    EXPECT_GT(res.scorer.conflictAccuracy(), 98.0);
}

TEST(ClassifyRun, PairAbsorbedByTwoWay)
{
    // The pairwise ping-pong produces no misses at all (after warmup)
    // in a 2-way cache.
    ClassifyConfig cfg;
    cfg.cacheBytes = 1024;
    cfg.assoc = 2;
    VectorTrace t = pingPongTrace(1024, 100);
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_EQ(res.misses, 2u);  // the two compulsory misses
}

TEST(ClassifyRun, FewTagBitsInflateConflicts)
{
    // With a 1-bit stored tag, about half of random capacity misses
    // false-match: capacity accuracy drops, conflict accuracy can
    // only rise (Figure 2's left edge).  Random line addresses avoid
    // the deterministic parity artifacts of sequential streams (the
    // working-set sensitivity the paper warns about in §3).
    VectorTrace t({}, {});
    Pcg32 rng(11);
    for (int i = 0; i < 2000; ++i) {
        Addr line = (static_cast<Addr>(rng.next()) << 14) |
                    (rng.next() & 0x3FFF);
        t.pushLoad(line & ~Addr{63});
    }
    ClassifyConfig full, one;
    full.cacheBytes = one.cacheBytes = 1024;
    one.mctTagBits = 1;
    ClassifyResult rf = classifyRun(t, full);
    ClassifyResult r1 = classifyRun(t, one);
    EXPECT_GT(rf.scorer.capacityAccuracy(),
              r1.scorer.capacityAccuracy());
    EXPECT_NEAR(r1.scorer.capacityAccuracy(), 50.0, 10.0);
    EXPECT_GT(rf.scorer.capacityAccuracy(), 95.0);
}

TEST(ClassifyRun, NonMemRecordsIgnored)
{
    VectorTrace t({}, {});
    t.pushNonMem(50);
    t.pushLoad(0x40);
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_EQ(res.references, 1u);
}

TEST(ClassifyRun, MissRateMatchesCounts)
{
    VectorTrace t({}, {});
    t.pushLoad(0x40);
    t.pushLoad(0x40);
    t.pushLoad(0x40);
    t.pushLoad(0x80);
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_EQ(res.misses, 2u);
    EXPECT_DOUBLE_EQ(res.missRate, 0.5);
}

TEST(ClassifyRun, ReplayableTraceGivesIdenticalResults)
{
    VectorTrace t = pingPongTrace(16 * 1024, 500);
    ClassifyConfig cfg;
    ClassifyResult a = classifyRun(t, cfg);
    ClassifyResult b = classifyRun(t, cfg);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.scorer.totalMisses(), b.scorer.totalMisses());
    EXPECT_DOUBLE_EQ(a.scorer.conflictAccuracy(),
                     b.scorer.conflictAccuracy());
}

// ---- Against the naive model ---------------------------------------

/** One random classify configuration and a trace to run through it. */
struct ModelCase
{
    ShardedClassifyConfig cfg;
    VectorTrace trace{"model", {}};
    std::string label;
};

/**
 * A random power-of-two geometry, tag width and depth, and a trace
 * mixing uniform references over a footprint of up to 4x the cache,
 * same-set streams cycling a few more tags than the set has ways,
 * sequential runs, cycles of about the cache's line count, stores
 * and non-memory records.  Addresses sit
 * above a random high base, so tags are wide and truncation aliases.
 */
ModelCase
randomModelCase(std::mt19937_64 &rng)
{
    const unsigned line_sizes[] = {4, 16, 64};
    const unsigned tag_widths[] = {0, 1, 2, 4, 10, 64};
    const unsigned depths[] = {1, 2, 3, 8};

    ModelCase c;
    const std::size_t sets = std::size_t{1} << (rng() % 7);
    c.cfg.assoc = 1u << (rng() % 4);
    c.cfg.lineBytes = line_sizes[rng() % std::size(line_sizes)];
    c.cfg.cacheBytes = sets * c.cfg.assoc * c.cfg.lineBytes;
    c.cfg.mctTagBits = tag_widths[rng() % std::size(tag_widths)];
    c.cfg.mctDepth = depths[rng() % std::size(depths)];
    c.label = "sets=" + std::to_string(sets) +
              " assoc=" + std::to_string(c.cfg.assoc) +
              " line=" + std::to_string(c.cfg.lineBytes) +
              " tag_bits=" + std::to_string(c.cfg.mctTagBits) +
              " depth=" + std::to_string(c.cfg.mctDepth);

    const Addr line = c.cfg.lineBytes;
    const Addr lines = c.cfg.cacheBytes / line;
    const Addr footprint = lines * (1 + rng() % 4);
    const Addr base = (rng() % (Addr{1} << 40)) * line;
    auto push = [&](Addr line_index) {
        const Addr addr = base + line_index * line + rng() % line;
        if (rng() % 4 == 0)
            c.trace.pushStore(addr);
        else
            c.trace.pushLoad(addr);
    };
    while (c.trace.size() < 3000) {
        switch (rng() % 5) {
          case 0: // uniform over the footprint
            for (int i = 0; i < 40; ++i)
                push(rng() % footprint);
            break;
          case 1: { // one set, a few more tags than it has ways
            const Addr set = rng() % sets;
            const Addr first_tag = rng() % 8;
            const unsigned tags = c.cfg.assoc + 1 + rng() % 3;
            for (unsigned r = 0; r < 6; ++r)
                for (unsigned t = 0; t < tags; ++t)
                    push((first_tag + t) * sets + set);
            break;
          }
          case 2: { // a sequential run
            const Addr start = rng() % footprint;
            for (Addr i = 0; i < 32; ++i)
                push(start + i);
            break;
          }
          case 3: { // cycle about as many lines as the cache holds
            // A sequential run plus one line aliasing its first set:
            // that set overflows while a fully associative cache of
            // the same capacity holds the whole cycle or just misses
            // it, so an oracle one line too small or large shows.
            const Addr start = rng() % footprint;
            const Addr n = lines - 1 + rng() % 3;
            for (unsigned r = 0; r < 3; ++r) {
                for (Addr i = 0; i + 1 < n; ++i)
                    push(start + i);
                push(start + (8 + rng() % 8) * sets);
            }
            break;
          }
          default:
            c.trace.pushNonMem(1 + rng() % 3);
            break;
        }
    }
    return c;
}

/** The naive model's counts for @p c. */
ref::RefClassifyTally
modelTally(const ModelCase &c)
{
    ref::RefClassifier model(c.cfg.cacheBytes, c.cfg.assoc,
                             c.cfg.lineBytes, c.cfg.mctTagBits,
                             c.cfg.mctDepth);
    for (const MemRecord &r : c.trace.records())
        if (r.isMem())
            model.reference(r.addr, r.isStore());
    return model.result();
}

TEST(NaiveModel, ClassifyRunScoresLikeTheModel)
{
    std::mt19937_64 rng(20261017);
    AccuracyScorer pooled; // every cell must be reached somewhere
    for (int i = 0; i < 60; ++i) {
        ModelCase c = randomModelCase(rng);
        SCOPED_TRACE("case " + std::to_string(i) + ": " + c.label);
        const ref::RefClassifyTally want = modelTally(c);
        const ClassifyConfig cfg = c.cfg;
        const ClassifyResult got = classifyRun(c.trace, cfg);

        EXPECT_EQ(got.references, want.references);
        EXPECT_EQ(got.misses, want.misses);
        const AccuracyScorer &s = got.scorer;
        EXPECT_EQ(s.conflictAsConflict(), want.conflictAsConflict);
        EXPECT_EQ(s.conflictAsCapacity(), want.conflictAsCapacity);
        EXPECT_EQ(s.capacityAsConflict(), want.capacityAsConflict);
        EXPECT_EQ(s.capacityAsCapacity(), want.capacityAsCapacity);
        EXPECT_EQ(s.compulsoryMisses(), want.compulsory);
        pooled.merge(s);
    }
    EXPECT_GT(pooled.conflictAsConflict(), 0u);
    EXPECT_GT(pooled.conflictAsCapacity(), 0u);
    EXPECT_GT(pooled.capacityAsConflict(), 0u);
    EXPECT_GT(pooled.capacityAsCapacity(), pooled.compulsoryMisses());
}

TEST(NaiveModel, ShardedClassifyCountsLikeTheModel)
{
    std::mt19937_64 rng(20261018);
    for (int i = 0; i < 30; ++i) {
        ModelCase c = randomModelCase(rng);
        const ref::RefClassifyTally want = modelTally(c);
        const std::vector<MemRecord> &recs = c.trace.records();
        for (unsigned k : {1u, 3u, 8u}) {
            SCOPED_TRACE("case " + std::to_string(i) + " K=" +
                         std::to_string(k) + ": " + c.label);
            c.cfg.shards = k;
            const ShardedClassifyResult got =
                runShardedClassify(recs.data(), recs.size(), c.cfg);

            EXPECT_EQ(got.records, recs.size());
            EXPECT_EQ(got.references, want.references);
            EXPECT_EQ(got.misses, want.misses);
            EXPECT_EQ(got.mem.accesses, want.references);
            EXPECT_EQ(got.mem.loads, want.loads);
            EXPECT_EQ(got.mem.stores, want.stores);
            EXPECT_EQ(got.mem.l1Hits, want.references - want.misses);
            EXPECT_EQ(got.mem.l1Misses, want.misses);
            EXPECT_EQ(got.mem.conflictMisses, want.mctConflicts);
            EXPECT_EQ(got.mem.capacityMisses, want.mctCapacities);
            EXPECT_EQ(got.heat.l1Misses, want.setMisses);
            EXPECT_EQ(got.heat.l1Evictions, want.setEvictions);
            EXPECT_EQ(got.heat.mctLookups, want.setLookups);
            EXPECT_EQ(got.heat.mctConflicts, want.setConflicts);
        }
    }
}

} // namespace
} // namespace ccm
