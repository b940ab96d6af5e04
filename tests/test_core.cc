/**
 * @file
 * Tests for the out-of-order core timing model: width limits, window
 * blocking, load/store unit limits, dependent-load serialization, and
 * a differential test against the recurrence in tests/ref/core_ref.hh.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/core.hh"
#include "ref/core_ref.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

MemSysConfig
fastMem()
{
    MemSysConfig cfg;
    cfg.l1Bytes = 1024;
    cfg.l2Bytes = 64 * 1024;
    return cfg;
}

TEST(Core, EmptyTraceFinishesImmediately)
{
    VectorTrace t;
    MemorySystem mem(fastMem());
    Core core(CoreConfig{});
    SimResult r = core.run(t, mem);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(Core, IpcBoundedByWidth)
{
    VectorTrace t;
    t.pushNonMem(10000);
    MemorySystem mem(fastMem());
    CoreConfig cfg;
    Core core(cfg);
    SimResult r = core.run(t, mem);
    EXPECT_EQ(r.instructions, 10000u);
    EXPECT_LE(r.ipc, double(cfg.fetchWidth));
    // Pure ALU code should sustain nearly full width.
    EXPECT_GT(r.ipc, 0.9 * cfg.fetchWidth);
}

TEST(Core, NarrowerCoreIsSlower)
{
    VectorTrace t;
    t.pushNonMem(10000);
    CoreConfig wide, narrow;
    narrow.fetchWidth = narrow.retireWidth = 2;
    MemorySystem m1(fastMem()), m2(fastMem());
    SimResult rw = Core(wide).run(t, m1);
    SimResult rn = Core(narrow).run(t, m2);
    EXPECT_GT(rn.cycles, rw.cycles);
    EXPECT_LE(rn.ipc, 2.05);
}

TEST(Core, MemRefsCounted)
{
    VectorTrace t;
    t.pushLoad(0x40);
    t.pushStore(0x80);
    t.pushNonMem(3);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_EQ(r.memRefs, 2u);
    EXPECT_EQ(r.instructions, 5u);
    EXPECT_EQ(mem.stats().accesses, 2u);
}

TEST(Core, MissLatencyShowsUpInCycles)
{
    // A single cold load costs ~memLatency; a hot one doesn't.
    VectorTrace cold;
    cold.pushLoad(0x40);
    MemorySystem m1(fastMem());
    SimResult rc = Core(CoreConfig{}).run(cold, m1);
    EXPECT_GT(rc.cycles, 100u);

    VectorTrace hot;
    hot.pushLoad(0x40);
    hot.pushLoad(0x40);
    MemorySystem m2(fastMem());
    SimResult rh = Core(CoreConfig{}).run(hot, m2);
    // Second load hits; total stays ~one miss.
    EXPECT_LT(rh.cycles, rc.cycles + 10);
}

TEST(Core, IndependentMissesOverlap)
{
    // 8 cold loads to distinct lines: the window and MSHRs overlap
    // them, so total time is far less than 8 serial misses.
    VectorTrace t;
    for (int i = 0; i < 8; ++i)
        t.pushLoad(0x1000 + i * 0x40);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_LT(r.cycles, 4 * 100u);
}

TEST(Core, DependentLoadsSerialize)
{
    // The same 8 cold loads, but each depends on the previous one:
    // no overlap is possible.
    VectorTrace t;
    for (int i = 0; i < 8; ++i) {
        MemRecord rec;
        rec.pc = i * 4;
        rec.addr = 0x1000 + i * 0x40;
        rec.type = RecordType::Load;
        rec.dependsOnPrevLoad = i > 0;
        t.push(rec);
    }
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_GT(r.cycles, 7 * 100u);
}

TEST(Core, StoresDontBlockRetirement)
{
    // Cold stores retire via the store buffer: total time is far
    // less than the serialized miss latency.
    VectorTrace t;
    for (int i = 0; i < 32; ++i)
        t.pushStore(0x1000 + i * 0x40);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_LT(r.cycles, 32 * 50u);
}

TEST(Core, LsuLimitThrottlesMemOps)
{
    // All-memory traces can't exceed loadStoreUnits IPC even when
    // everything hits.
    VectorTrace t;
    for (int i = 0; i < 4000; ++i)
        t.pushLoad(0x40);   // same line: hits after first
    CoreConfig cfg;
    MemorySystem mem(fastMem());
    SimResult r = Core(cfg).run(t, mem);
    EXPECT_LE(r.ipc, double(cfg.loadStoreUnits) + 0.05);
}

TEST(Core, RobLimitsMissOverlap)
{
    // With a 4-entry window, at most ~4 misses overlap.
    VectorTrace t;
    for (int i = 0; i < 16; ++i)
        t.pushLoad(0x1000 + i * 0x40);
    CoreConfig tiny;
    tiny.robSize = 4;
    MemorySystem m1(fastMem());
    SimResult small = Core(tiny).run(t, m1);

    CoreConfig big;
    MemorySystem m2(fastMem());
    SimResult large = Core(big).run(t, m2);
    EXPECT_GT(small.cycles, large.cycles);
}

TEST(Core, DeterministicAcrossRuns)
{
    auto wl = makeWorkload("compress", 5000, 9);
    VectorTrace t = VectorTrace::capture(*wl);
    MemorySystem m1(fastMem()), m2(fastMem());
    SimResult a = Core(CoreConfig{}).run(t, m1);
    SimResult b = Core(CoreConfig{}).run(t, m2);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(m1.stats().l1Misses, m2.stats().l1Misses);
}

TEST(Core, PipelineFillAddsStartupCycles)
{
    VectorTrace t;
    t.pushNonMem(1);
    CoreConfig cfg;
    MemorySystem mem(fastMem());
    SimResult r = Core(cfg).run(t, mem);
    EXPECT_GE(r.cycles, cfg.pipelineFill);
}

/**
 * A seeded random instruction stream: non-memory runs, loads (a
 * quarter of them dependent on the previous load) and stores, half to
 * a hot region that aliases in a small L1 and half to a streaming
 * walk.
 */
std::vector<MemRecord>
randomCoreTrace(std::uint64_t seed, std::size_t n)
{
    Pcg32 rng(seed);
    std::vector<MemRecord> out;
    Addr stream = 0x4000000;
    for (std::size_t i = 0; i < n; ++i) {
        MemRecord r;
        r.pc = 0x1000 + 4 * Addr(rng.below(512));
        const unsigned kind = rng.below(10);
        if (kind >= 4) {
            r.type = kind < 8 ? RecordType::Load : RecordType::Store;
            if (rng.below(2) == 0) {
                r.addr = 0x100000 + 64 * Addr(rng.below(32)) +
                         4096 * Addr(rng.below(4));
            } else {
                r.addr = stream;
                stream += 64;
            }
            r.dependsOnPrevLoad = r.isLoad() && rng.below(4) == 0;
        }
        out.push_back(r);
    }
    return out;
}

void
expectSameStats(const MemStats &got, const MemStats &want,
                const std::string &where)
{
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(got.*f, want.*f) << where << " " << name;
    });
}

TEST(NaiveModel, CoreCyclesMatchARecurrence)
{
    // A small baseline hierarchy, and an AMB with two MSHRs whose
    // prefetches and stalls depend on every issue cycle.
    MemSysConfig base = fastMem();
    MemSysConfig amb = fastMem();
    amb.mode = AssistMode::Amb;
    amb.amb = {true, true, true};
    amb.mshrs = 2;

    struct Shape
    {
        unsigned fetch, retire, lsus, wrongPathRate;
        Cycle fill;
    };
    const Shape shapes[] = {
        {3, 2, 1, 0, 7}, {8, 5, 4, 5, 7}, {1, 4, 2, 0, 0},
        {6, 3, 3, 3, 2},
    };
    const unsigned robs[] = {1, 3, 7, 64, 100};

    unsigned seed = 0;
    for (unsigned rob : robs) {
        for (const Shape &s : shapes) {
            for (const MemSysConfig *mc : {&base, &amb}) {
                CoreConfig cc;
                cc.robSize = rob;
                cc.fetchWidth = s.fetch;
                cc.retireWidth = s.retire;
                cc.loadStoreUnits = s.lsus;
                cc.wrongPathRate = s.wrongPathRate;
                cc.wrongPathBurst = 3;
                cc.pipelineFill = s.fill;
                // Every 13th case (four in all) is an empty trace.
                const std::size_t n = seed % 13 == 0 ? 0 : 2500;
                std::vector<MemRecord> recs =
                    randomCoreTrace(++seed, n);
                const std::string where =
                    "rob " + std::to_string(rob) + " fetch " +
                    std::to_string(s.fetch) + " retire " +
                    std::to_string(s.retire) + " lsus " +
                    std::to_string(s.lsus) + " wrong-path " +
                    std::to_string(s.wrongPathRate) + " mode " +
                    (mc == &amb ? "amb" : "baseline") + " n " +
                    std::to_string(n);

                VectorTrace t("t", recs);
                MemorySystem model_mem(*mc), ref_mem(*mc);
                const SimResult got = Core(cc).run(t, model_mem);
                const SimResult want =
                    ref::runCoreRef(recs, cc, ref_mem);
                EXPECT_EQ(got.cycles, want.cycles) << where;
                EXPECT_EQ(got.instructions, want.instructions) << where;
                EXPECT_EQ(got.memRefs, want.memRefs) << where;
                EXPECT_EQ(got.ipc, want.ipc) << where;
                expectSameStats(model_mem.stats(), ref_mem.stats(),
                                where);
            }
        }
    }
}

} // namespace
} // namespace ccm
