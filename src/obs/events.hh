/**
 * @file
 * Classification event tracing: a rate-limitable recorder of
 * individual MCT lookups (set, stored tag, incoming tag, verdict,
 * oracle agreement when an oracle is present).  Off by default —
 * nothing in the hot path unless a trace is attached.
 *
 * The recorder plugs into MissClassificationTable lookup hooks for
 * the table-side fields and (in classification runs) into a
 * ClassifyObserver for the oracle verdict, which is annotated onto
 * the most recently recorded event.
 */

#ifndef CCM_OBS_EVENTS_HH
#define CCM_OBS_EVENTS_HH

#include <cstddef>
#include <vector>

#include "mct/classify_run.hh"
#include "mct/mct.hh"
#include "obs/interval.hh"

namespace ccm::obs
{

/** Rate limiting and capacity for an event trace. */
struct EventTraceOptions
{
    /** Record every Nth lookup (1 = all). */
    Count sampleEvery = 1;
    /** Stop recording (but keep counting) past this many events. */
    std::size_t maxEvents = 4096;
};

/** One recorded classification event. */
struct ClassifyEvent
{
    /** 1-based reference index when known, 0 otherwise. */
    Count ref = 0;
    std::size_t set = 0;
    Addr storedTag = 0;
    bool storedValid = false;
    Addr incomingTag = 0;
    MissClass verdict = MissClass::Capacity;
    /** Oracle verdict, when an oracle was watching. */
    bool oracleKnown = false;
    MissClass oracle = MissClass::Capacity;

    /** MCT/oracle agreement; meaningless unless oracleKnown. */
    bool
    agrees() const
    {
        return isConflict(verdict) == isConflict(oracle);
    }
};

/** Bounded, rate-limited recorder of MCT lookup events. */
class ClassifyEventTrace
{
  public:
    explicit ClassifyEventTrace(EventTraceOptions options = {})
        : opts(options)
    {
        if (opts.sampleEvery == 0)
            opts.sampleEvery = 1;
    }

    /** The hook to install via setLookupHook (captures this). */
    MctLookupHook
    hook()
    {
        return [this](const MctLookupEvent &e) { onLookup(e); };
    }

    /** Advance the reference index events are stamped with. */
    void noteReference() { ++refIndex; }

    /** Attach the oracle verdict to the most recent recorded event. */
    void
    annotateOracle(MissClass oracle)
    {
        if (lastRecorded && !events_.empty()) {
            events_.back().oracleKnown = true;
            events_.back().oracle = oracle;
        }
    }

    const std::vector<ClassifyEvent> &events() const { return events_; }

    /** Total lookups observed (recorded or not). */
    Count seen() const { return seen_; }

    /** Lookups skipped by rate limiting or the event cap. */
    Count dropped() const { return seen_ - recorded_; }

    Count recorded() const { return recorded_; }

    const EventTraceOptions &options() const { return opts; }

  private:
    void
    onLookup(const MctLookupEvent &e)
    {
        ++seen_;
        lastRecorded = false;
        if ((seen_ - 1) % opts.sampleEvery != 0)
            return;
        if (events_.size() >= opts.maxEvents)
            return;
        ClassifyEvent ev;
        ev.ref = refIndex;
        ev.set = e.set.value();
        ev.storedTag = e.storedTag;
        ev.storedValid = e.storedValid;
        ev.incomingTag = e.incomingTag.value();
        ev.verdict = e.verdict;
        events_.push_back(ev);
        ++recorded_;
        lastRecorded = true;
    }

    EventTraceOptions opts;
    Count seen_ = 0;
    Count recorded_ = 0;
    Count refIndex = 0;
    bool lastRecorded = false;
    std::vector<ClassifyEvent> events_;
};

/**
 * Ready-made ClassifyObserver wiring an IntervalSampler and/or an
 * event trace into classifyRun (either may be null):
 *
 *   IntervalSampler sampler(10'000);
 *   ClassifyEventTrace trace;
 *   ClassifyObservation watch(&sampler, &trace);
 *   cfg.observer = &watch;
 *   cfg.lookupHook = trace.hook();
 *   auto res = classifyRun(src, cfg);
 *   sampler.finishClassify();
 */
class ClassifyObservation : public ClassifyObserver
{
  public:
    ClassifyObservation(IntervalSampler *sampler,
                        ClassifyEventTrace *trace)
        : sampler_(sampler), trace_(trace)
    {
    }

    void
    onReference(bool miss) override
    {
        if (trace_)
            trace_->noteReference();
        if (sampler_) {
            sampler_->onClassifiedReference(miss);
            if (!miss)
                sampler_->onClassifiedTick();
        }
    }

    void
    onMiss(SetIndex, Tag, MissClass mct, MissClass oracle) override
    {
        if (sampler_)
            sampler_->onClassifiedMiss(mct, oracle);
        if (trace_)
            trace_->annotateOracle(oracle);
    }

  private:
    IntervalSampler *sampler_;
    ClassifyEventTrace *trace_;
};

} // namespace ccm::obs

#endif // CCM_OBS_EVENTS_HH
