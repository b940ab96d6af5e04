/**
 * @file
 * Batched trace-delivery contract tests: for every TraceSource
 * implementation, the concatenation of nextBatch() results must
 * equal the next() sequence, for any batch partitioning — including
 * across FileTrace resync points and fault-injection decisions.
 * Also covers the BatchReader adapter and the drivers that pull
 * through it or through nextBatch() directly: their results must not
 * depend on how the source partitions its batches.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "mct/classify_run.hh"
#include "mt/interleave.hh"
#include "remap/remap_sim.hh"
#include "sim/experiment.hh"
#include "trace/batch_reader.hh"
#include "trace/fault_trace.hh"
#include "trace/file_trace.hh"
#include "trace/vector_trace.hh"
#include "workloads/code_stream.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

bool
sameRecord(const MemRecord &a, const MemRecord &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.type == b.type &&
           a.dependsOnPrevLoad == b.dependsOnPrevLoad;
}

std::vector<MemRecord>
drainNext(TraceSource &src)
{
    src.reset();
    std::vector<MemRecord> out;
    MemRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

std::vector<MemRecord>
drainBatched(TraceSource &src, std::size_t batch)
{
    src.reset();
    std::vector<MemRecord> out;
    std::vector<MemRecord> buf(batch);
    for (;;) {
        const std::size_t got = src.nextBatch(buf.data(), batch);
        // Contract: zero iff exhausted (a short nonzero batch
        // carries no end-of-trace meaning).
        if (got == 0)
            break;
        EXPECT_LE(got, batch) << src.name();
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
    }
    // Exhaustion is stable: further calls keep returning zero.
    EXPECT_EQ(src.nextBatch(buf.data(), batch), 0u) << src.name();
    return out;
}

/** Assert batched delivery matches next() for several partitions. */
void
expectBatchEquivalence(TraceSource &src)
{
    const std::vector<MemRecord> ref = drainNext(src);
    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{256},
                              std::size_t{1000}}) {
        const std::vector<MemRecord> got = drainBatched(src, batch);
        ASSERT_EQ(got.size(), ref.size())
            << src.name() << " batch " << batch;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_TRUE(sameRecord(got[i], ref[i]))
                << src.name() << " batch " << batch << " record " << i;
        }
    }
    // Mixing styles mid-stream is allowed: one record via next(),
    // the rest batched, must still concatenate to the same sequence.
    src.reset();
    MemRecord first;
    if (src.next(first)) {
        std::vector<MemRecord> mixed{first};
        std::vector<MemRecord> buf(7);
        std::size_t got;
        while ((got = src.nextBatch(buf.data(), buf.size())) > 0)
            mixed.insert(mixed.end(), buf.begin(),
                         buf.begin() + static_cast<std::ptrdiff_t>(got));
        ASSERT_EQ(mixed.size(), ref.size()) << src.name();
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_TRUE(sameRecord(mixed[i], ref[i])) << src.name();
    }
}

TEST(BatchEquivalence, VectorTrace)
{
    VectorTrace t;
    for (int i = 0; i < 1000; ++i) {
        t.pushLoad(Addr(0x1000 + 64 * i));
        if (i % 3 == 0)
            t.pushStore(Addr(0x8000 + 8 * i));
        if (i % 5 == 0)
            t.pushNonMem(2);
    }
    expectBatchEquivalence(t);
}

TEST(BatchEquivalence, EmptyVectorTrace)
{
    VectorTrace t;
    MemRecord buf[4];
    EXPECT_EQ(t.nextBatch(buf, 4), 0u);
}

TEST(BatchEquivalence, EverySyntheticWorkload)
{
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name, 2000, 42);
        ASSERT_NE(wl, nullptr) << name;
        expectBatchEquivalence(*wl);
    }
}

TEST(BatchEquivalence, CodeStreamWorkload)
{
    CodeStreamWorkload wl(
        "loops",
        {{0x1000, 40}, {0x4000, 17}, {0x9000, 3}},
        {0, 1, 0, 2}, 5000);
    expectBatchEquivalence(wl);
}

TEST(BatchEquivalence, FaultInjectingSource)
{
    auto wl = makeWorkload("gcc", 3000, 7);
    VectorTrace clean = VectorTrace::capture(*wl);

    FaultPlan plan;
    plan.seed = 99;
    plan.bitFlipRate = 0.05;
    plan.dropRate = 0.03;
    plan.duplicateRate = 0.04;
    FaultInjectingSource dirty(clean, plan);
    // reset() reseeds the fault RNG, so every drain sees the same
    // per-record decisions and the dirty stream is reproducible.
    expectBatchEquivalence(dirty);
}

TEST(BatchEquivalence, FaultInjectingSourceTruncation)
{
    auto wl = makeWorkload("compress", 3000, 7);
    VectorTrace clean = VectorTrace::capture(*wl);

    FaultPlan plan;
    plan.seed = 5;
    plan.truncateAfter = 700;   // not a multiple of any batch size
    FaultInjectingSource dirty(clean, plan);
    expectBatchEquivalence(dirty);
    EXPECT_EQ(drainNext(dirty).size(), 700u);
}

TEST(BatchEquivalence, InterleavedTraceDefaultPath)
{
    // InterleavedTrace keeps the base-class record-at-a-time
    // nextBatch (its consumers read per-record thread attribution),
    // which must still satisfy the batch contract.
    VectorTrace a;
    VectorTrace b;
    for (int i = 0; i < 100; ++i) {
        a.pushLoad(Addr(0x1000 + 64 * i));
        b.pushStore(Addr(0x100000 + 64 * i));
    }
    std::vector<TraceSource *> srcs{&a, &b};
    InterleavedTrace t(srcs, 4);
    expectBatchEquivalence(t);
}

/** File-backed traces, including damaged ones. */
class BatchFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "ccm_batch_" +
               std::to_string(::getpid()) + ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    void
    writeBytes(const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    static std::vector<std::uint8_t>
    header()
    {
        std::vector<std::uint8_t> h{'C', 'C', 'M', 'T',
                                    'R', 'A', 'C', 'E'};
        h.push_back(1);                  // version 1, little endian
        for (int i = 0; i < 7; ++i)
            h.push_back(0);
        return h;
    }

    static std::vector<std::uint8_t>
    record(std::uint8_t fill, std::uint8_t type = 1)
    {
        std::vector<std::uint8_t> r(24, 0);
        for (int i = 0; i < 16; ++i)
            r[i] = fill;
        r[16] = type;
        return r;
    }

    static void
    append(std::vector<std::uint8_t> &to,
           const std::vector<std::uint8_t> &bytes)
    {
        to.insert(to.end(), bytes.begin(), bytes.end());
    }

    std::string path;
};

TEST_F(BatchFileTest, CleanFile)
{
    auto wl = makeWorkload("mgrid", 2000, 11);
    VectorTrace t = VectorTrace::capture(*wl);
    {
        auto w = TraceFileWriter::create(path);
        ASSERT_TRUE(w.ok()) << w.status().toString();
        ASSERT_TRUE(w.value()->writeAll(t).ok());
        ASSERT_TRUE(w.value()->close().isOk());
    }
    auto rd = TraceFileReader::open(path);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    expectBatchEquivalence(*rd.value());
}

TEST_F(BatchFileTest, CorruptedFileResyncsAcrossBatchBoundaries)
{
    // Mid-file garbage between records 5 and 6: the resync happens in
    // the open-time scan, so batch partitions that straddle the
    // damaged region must deliver exactly the records the next() path
    // delivers.
    auto bytes = header();
    for (std::uint8_t i = 1; i <= 5; ++i)
        append(bytes, record(i));
    append(bytes, std::vector<std::uint8_t>(24, 0xFF));
    for (std::uint8_t i = 6; i <= 13; ++i)
        append(bytes, record(i, 2));
    bytes.resize(bytes.size() - 3); // and a truncated tail
    writeBytes(bytes);

    TraceReadOptions opts;
    opts.corruptionBudget = 1;
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;
    auto rd = TraceFileReader::open(path, opts);
    ASSERT_TRUE(rd.ok()) << rd.status().toString();
    EXPECT_EQ(rd.value()->readStats().resyncEvents, 1u);
    EXPECT_TRUE(rd.value()->readStats().truncatedTail);
    EXPECT_EQ(rd.value()->size(), 12u);

    expectBatchEquivalence(*rd.value());
}

/**
 * Passes @p inner through, but returns at most @p cap records from
 * each nextBatch() call: a legal short batch on every pull, so a
 * consumer that treats a short batch as the end of the trace (or
 * skips records past it) diverges from the plain source.
 */
class CappedBatchTrace : public TraceSource
{
  public:
    CappedBatchTrace(TraceSource &inner, std::size_t cap)
        : inner_(inner), cap_(cap)
    {
    }

    bool next(MemRecord &out) override { return inner_.next(out); }

    std::size_t
    nextBatch(MemRecord *out, std::size_t n) override
    {
        return inner_.nextBatch(out, std::min(n, cap_));
    }

    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    TraceSource &inner_;
    std::size_t cap_;
};

TEST(BatchReaderTest, DeliversIdenticalStream)
{
    auto wl = makeWorkload("swim", 2000, 3);
    VectorTrace t = VectorTrace::capture(*wl);
    const std::vector<MemRecord> ref = drainNext(t);

    for (std::size_t cap : {std::size_t{1}, std::size_t{17},
                            maxTraceBatch}) {
        t.reset();
        CappedBatchTrace capped(t, cap);
        BatchReader reader(capped);
        std::vector<MemRecord> got;
        MemRecord r;
        while (reader.next(r))
            got.push_back(r);
        ASSERT_EQ(got.size(), ref.size()) << "cap " << cap;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_TRUE(sameRecord(got[i], ref[i])) << "cap " << cap;
    }
}

TEST(BatchReaderTest, DriversAgreeOnSingleRecordBatches)
{
    auto wl = makeWorkload("tomcatv", 20000, 7);
    VectorTrace plain = VectorTrace::capture(*wl);
    CappedBatchTrace single(plain, 1);

    // Timing: the victim machine, so Core pulls through BatchReader
    // and the assist buffer sees every MCT decision.
    const SystemConfig sys = victimConfig(false, false);
    const RunOutput a = runTiming(plain, sys);
    const RunOutput b = runTiming(single, sys);
    EXPECT_GT(a.mem.l1Misses, 0u);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.instructions, b.sim.instructions);
    EXPECT_EQ(a.sim.memRefs, b.sim.memRefs);
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(a.mem.*f, b.mem.*f) << "counter " << name;
    });
    EXPECT_EQ(a.heat.l1Misses, b.heat.l1Misses);
    EXPECT_EQ(a.heat.mctConflicts, b.heat.mctConflicts);

    // Classification: cache + MCT + oracle over nextBatch().
    const ClassifyConfig ccfg;
    const ClassifyResult ca = classifyRun(plain, ccfg);
    const ClassifyResult cb = classifyRun(single, ccfg);
    EXPECT_GT(ca.scorer.oracleConflicts(), 0u);
    EXPECT_EQ(ca.references, cb.references);
    EXPECT_EQ(ca.misses, cb.misses);
    EXPECT_EQ(ca.scorer.conflictAsConflict(),
              cb.scorer.conflictAsConflict());
    EXPECT_EQ(ca.scorer.conflictAsCapacity(),
              cb.scorer.conflictAsCapacity());
    EXPECT_EQ(ca.scorer.capacityAsConflict(),
              cb.scorer.capacityAsConflict());
    EXPECT_EQ(ca.scorer.capacityAsCapacity(),
              cb.scorer.capacityAsCapacity());
    EXPECT_EQ(ca.scorer.compulsoryMisses(), cb.scorer.compulsoryMisses());

    // Page remapping: epochs count references across batch edges.
    RemapConfig rcfg;
    rcfg.epochRefs = 1000;
    rcfg.hotThreshold = 8;
    const RemapResult ra = PageRemapSim(rcfg).run(plain);
    const RemapResult rb = PageRemapSim(rcfg).run(single);
    EXPECT_GT(ra.remaps, 0u);
    EXPECT_EQ(ra.references, rb.references);
    EXPECT_EQ(ra.misses, rb.misses);
    EXPECT_EQ(ra.remaps, rb.remaps);
}

} // namespace
} // namespace ccm
