/**
 * @file
 * Timing helpers shared by the benchmark drivers: an in-memory span
 * log recorded around calls into the ccm libraries (the libraries
 * themselves carry no benchmark spans), plus small statistics.
 *
 * A span has a name, a start, an end and the span that was open when
 * it began (its parent), so a layer's self time is its duration minus
 * its children's.  Spans stay in memory and are written out once, as
 * Chrome trace-event JSON, when the driver ends.
 */

#ifndef CCM_PERFBENCH_SPANS_HH
#define CCM_PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Single-threaded span log (see file comment). */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double startS = 0.0;
        double endS = 0.0;

        double seconds() const { return endS - startS; }
    };

    int
    begin(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.parent = open_.empty() ? -1 : open_.back();
        s.startS = secondsSince(origin_);
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[static_cast<std::size_t>(id)].endS = secondsSince(origin_);
        open_.pop_back();
    }

    /** Durations of every closed span called @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name)
                out.push_back(s.seconds());
        return out;
    }

    /** Median duration of the spans called @p name. */
    double
    medianSeconds(const std::string &name) const
    {
        return median(durations(name));
    }

    /** Write the log as Chrome trace-event JSON ("X" events). */
    bool
    writeChromeTrace(const std::string &path) const
    {
        using ccm::obs::JsonValue;
        JsonValue events = JsonValue::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            JsonValue e = JsonValue::object();
            e.set("name", JsonValue::str(s.name));
            e.set("ph", JsonValue::str("X"));
            e.set("pid", JsonValue::uint(1));
            e.set("tid", JsonValue::uint(1));
            e.set("ts", JsonValue::real(s.startS * 1e6));
            e.set("dur", JsonValue::real(s.seconds() * 1e6));
            JsonValue args = JsonValue::object();
            args.set("id", JsonValue::uint(i));
            args.set("parent", JsonValue::integer(s.parent));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::object();
        doc.set("traceEvents", std::move(events));
        std::ofstream os(path);
        os << doc.toString() << "\n";
        return static_cast<bool>(os);
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: open for the lifetime of the object. */
class Scoped
{
  public:
    Scoped(SpanLog &log, std::string name)
        : log_(log), id_(log.begin(std::move(name)))
    {
    }
    ~Scoped() { log_.end(id_); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // CCM_PERFBENCH_SPANS_HH
