/**
 * @file
 * Classification event tracing: a rate-limitable recorder of
 * individual MCT lookups (reference index, set, stored tag, incoming
 * tag, verdict).  Off by default — nothing in the hot path unless a
 * trace is attached.
 *
 * The recorder plugs into a MissClassificationTable lookup hook for
 * the table-side fields (ccm-sim --trace-events attaches it to the
 * timing lane's table), and is told when each memory reference
 * completes so every event carries the 1-based index of the
 * reference whose miss raised it.
 */

#ifndef CCM_OBS_EVENTS_HH
#define CCM_OBS_EVENTS_HH

#include <cstddef>
#include <vector>

#include "mct/mct.hh"

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
    /**
     * 1-based index of the memory reference whose MCT lookup raised
     * the event: references completed before it, plus one.
     */
    Count ref = 0;
    std::size_t set = 0;
    Addr storedTag = 0;
    bool storedValid = false;
    Addr incomingTag = 0;
    MissClass verdict = MissClass::Capacity;
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

    /**
     * Count one completed memory reference (call it after every
     * reference, e.g. from MemorySystem's access hook).
     */
    void noteReference() { ++completedRefs; }

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
        if ((seen_ - 1) % opts.sampleEvery != 0)
            return;
        if (events_.size() >= opts.maxEvents)
            return;
        ClassifyEvent ev;
        ev.ref = completedRefs + 1;
        ev.set = e.set.value();
        ev.storedTag = e.storedTag;
        ev.storedValid = e.storedValid;
        ev.incomingTag = e.incomingTag.value();
        ev.verdict = e.verdict;
        events_.push_back(ev);
        ++recorded_;
    }

    EventTraceOptions opts;
    Count seen_ = 0;
    Count recorded_ = 0;
    Count completedRefs = 0;
    std::vector<ClassifyEvent> events_;
};

} // namespace ccm::obs

#endif // CCM_OBS_EVENTS_HH
