#include "serve/stream.hh"

#include <chrono>

#include "common/log.hh"
#include "hierarchy/memsys.hh"
#include "obs/sink.hh"
#include "obs/span.hh"
#include "serve/telemetry.hh"

namespace ccm::serve
{

namespace
{

std::int64_t
nowMillis()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
nowMicros()
{
    using namespace std::chrono;
    return duration_cast<microseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

obs::JsonValue
frameStatsToJson(const FrameStats &fs)
{
    obs::JsonValue j = obs::JsonValue::object();
    j.set("frames", obs::JsonValue::uint(fs.frames));
    j.set("records", obs::JsonValue::uint(fs.records));
    j.set("malformed_frames", obs::JsonValue::uint(fs.malformedFrames));
    j.set("resync_events", obs::JsonValue::uint(fs.resyncEvents));
    j.set("bytes_skipped", obs::JsonValue::uint(fs.bytesSkipped));
    j.set("bad_records", obs::JsonValue::uint(fs.badRecords));
    j.set("first_defect",
          obs::JsonValue::str(frameDefectName(fs.firstDefect)));
    return j;
}

} // namespace

QueueSource::QueueSource(RecordQueue &queue, std::string label)
    : q(queue), label_(std::move(label)),
      classifyUs_(serveMetrics().batchClassifyUs),
      classified_(serveMetrics().classifiedRecords)
{
}

std::size_t
QueueSource::nextBatch(MemRecord *out, std::size_t n)
{
    // The gap since the previous batch was handed out is the classify
    // time of that batch; the blocking pop below is queue wait and
    // deliberately not part of it.  An armed lastHandoffUs_ means the
    // previous batch was the 1-in-N sample to time.
    if (lastHandoffUs_ != 0) {
        classifyUs_.observe(
            static_cast<std::uint64_t>(nowMicros() - lastHandoffUs_));
        lastHandoffUs_ = 0;
    }

    const std::size_t got = q.pop(out, n);

    classified_.inc(got);
    if (got > 0 && ++tick_ % kClassifySampleEvery == 0)
        lastHandoffUs_ = nowMicros();
    return got;
}

const char *
toString(StreamState s)
{
    switch (s) {
      case StreamState::Admitted:
        return "admitted";
      case StreamState::Running:
        return "running";
      case StreamState::Done:
        return "done";
      case StreamState::Failed:
        return "failed";
    }
    return "unknown";
}

StreamPipeline::StreamPipeline(std::uint64_t id, std::string name,
                               const SystemConfig &system_in,
                               const StreamLimits &limits_in,
                               std::uint64_t generation_in)
    : id_(id), name_(std::move(name)), system(system_in),
      limits(limits_in), generation(generation_in),
      spanBeginUs_(obs::SpanTracer::global().nowMicros()),
      q(limits_in.queueRecords, limits_in.policy)
{
    lastActivityMs.store(nowMillis(), std::memory_order_relaxed);
}

StreamPipeline::~StreamPipeline()
{
    q.abort();
    join();
}

void
StreamPipeline::start()
{
    {
        MutexLock lock(mu);
        state_ = StreamState::Running;
    }
    simThread = std::thread([this] { runBody(); });
}

void
StreamPipeline::join()
{
    if (simThread.joinable())
        simThread.join();
}

bool
StreamPipeline::finished() const
{
    MutexLock lock(mu);
    return finished_;
}

StreamState
StreamPipeline::state() const
{
    MutexLock lock(mu);
    return state_;
}

Status
StreamPipeline::status() const
{
    MutexLock lock(mu);
    return failStatus;
}

void
StreamPipeline::failWith(const Status &why)
{
    if (why.isOk())
        return;
    MutexLock lock(mu);
    if (state_ == StreamState::Done || state_ == StreamState::Failed)
        return;
    if (failStatus.isOk())
        failStatus = why;
}

void
StreamPipeline::setFrameStats(const FrameStats &fs)
{
    MutexLock lock(mu);
    frames = fs;
}

void
StreamPipeline::noteActivity()
{
    lastActivityMs.store(nowMillis(), std::memory_order_relaxed);
}

std::int64_t
StreamPipeline::idleMillis() const
{
    return nowMillis() -
           lastActivityMs.load(std::memory_order_relaxed);
}

const RunOutput &
StreamPipeline::output() const
{
    MutexLock lock(mu);
    return out;
}

void
StreamPipeline::refreshSnapshot(const MemStats &st)
{
    noteActivity();
    if (sampler != nullptr)
        live.publish(st, obs::intervalsToJson(*sampler),
                     !sampler->samples().empty());
    else
        live.publish(st);
}

void
StreamPipeline::runBody()
{
    LogStreamScope log_scope(id_);
    CCM_LOG_DEBUG("stream '", name_, "': simulation thread started");

    if (limits.windowEvery > 0) {
        sampler =
            std::make_unique<obs::IntervalSampler>(limits.windowEvery);
        sampler->setRollingCapacity(limits.windowSamples);
    }

    QueueSource src(q, name_);
    const Count snap_every =
        limits.snapshotEvery == 0 ? 1 : limits.snapshotEvery;
    MemSysInstrument instrument = [this,
                                   snap_every](MemorySystem &mem) {
        mem.setAccessHook(
            [this, snap_every](const AccessResult &,
                               const MemStats &st) {
                if (sampler != nullptr)
                    sampler->onAccess(st);
                if (++refsSinceSnap >= snap_every) {
                    refsSinceSnap = 0;
                    refreshSnapshot(st);
                }
            });
    };

    // The exact batch code path: Core::run over a MemorySystem built
    // from this stream's config, which tryRunTiming validates first.
    Expected<RunOutput> run = tryRunTiming(src, system, instrument);

    if (run.ok()) {
        // Publish the final counters to the live cell first so a
        // reader racing the state flip below never sees Done with a
        // stale mid-run snapshot.
        const RunOutput &res = run.value();
        if (sampler != nullptr) {
            sampler->finish(res.mem);
            live.publish(res.mem, obs::intervalsToJson(*sampler),
                         !sampler->samples().empty());
        } else {
            live.publish(res.mem);
        }
    }

    {
        MutexLock lock(mu);
        if (run.ok()) {
            out = run.take();
        } else if (failStatus.isOk()) {
            failStatus = run.status();
        }
        state_ = failStatus.isOk() && run.ok() ? StreamState::Done
                                               : StreamState::Failed;
        finished_ = true;
    }

    // Once this thread is gone nothing will ever pop again, so the
    // queue must not take more input: a run that failed (e.g. a bad
    // geometry) leaves records in flight, and under the Block policy
    // the connection reader would otherwise wait in push() forever —
    // holding its admission slot and hanging drain.
    q.abort();
}

obs::JsonValue
StreamPipeline::reportJson() const
{
    // Three locks, taken strictly one after another (never nested):
    // queue stats (rank 50), the live cell (rank 40), then the stream
    // mutex (rank 30).
    const QueueStats qs = q.stats();
    const obs::LiveStatsCell::Snapshot snap = live.snapshot();

    MutexLock lock(mu);
    obs::JsonValue s = obs::JsonValue::object();
    s.set("name", obs::JsonValue::str(name_));
    s.set("id", obs::JsonValue::uint(id_));
    s.set("generation", obs::JsonValue::uint(generation));
    s.set("state", obs::JsonValue::str(toString(state_)));
    s.set("records", obs::JsonValue::uint(qs.pushed));
    s.set("refs", obs::JsonValue::uint(snap.stats.accesses));

    obs::JsonValue queue_j = obs::JsonValue::object();
    queue_j.set("capacity", obs::JsonValue::uint(q.capacity()));
    queue_j.set("policy",
                obs::JsonValue::str(toString(q.policy())));
    queue_j.set("shed_records", obs::JsonValue::uint(qs.shed));
    queue_j.set("max_depth", obs::JsonValue::uint(qs.maxDepth));
    s.set("queue", std::move(queue_j));

    s.set("frames", frameStatsToJson(frames));

    if (state_ == StreamState::Failed)
        s.set("error", obs::JsonValue::str(failStatus.toString()));

    if (state_ == StreamState::Done) {
        s.set("sim", obs::simResultToJson(out.sim));
        s.set("mem", obs::memStatsToJson(out.mem));
        s.set("heatmap", obs::setHistogramsToJson(out.heat));
    } else if (snap.stats.accesses > 0) {
        s.set("mem_live", obs::memStatsToJson(snap.stats));
    }

    if (snap.haveWindow)
        s.set("window", snap.window);

    return s;
}

} // namespace ccm::serve
