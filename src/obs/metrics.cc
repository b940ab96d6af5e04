#include "obs/metrics.hh"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/log.hh"

namespace ccm::obs
{

namespace
{

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name.front()))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

/** Help strings are one exposition line: escape per the format. */
std::string
escapeHelp(const std::string &help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

const char *
toString(MetricType type)
{
    switch (type) {
      case MetricType::Counter: return "counter";
      case MetricType::Gauge: return "gauge";
      case MetricType::Histogram: return "histogram";
    }
    return "?";
}

std::size_t
Histogram::bucketIndex(std::uint64_t sample)
{
    return static_cast<std::size_t>(std::bit_width(sample));
}

std::uint64_t
Histogram::bucketLo(std::size_t i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
Histogram::bucketHi(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
}

double
Histogram::Snapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        if (cum + buckets[i] < rank) {
            cum += buckets[i];
            continue;
        }
        const double lo = static_cast<double>(bucketLo(i));
        const double hi = static_cast<double>(bucketHi(i));
        const double pos = static_cast<double>(rank - cum);
        const double n = static_cast<double>(buckets[i]);
        return lo + (hi - lo) * pos / n;
    }
    return 0.0; // unreachable for a consistent snapshot
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    s.sum = sum_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBuckets; ++i) {
        s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        s.count += s.buckets[i];
    }
    return s;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(std::string_view name,
                              std::string_view help, MetricType type)
{
    if (!validMetricName(name))
        ccm_panic("invalid metric name '", name,
                  "' (want [a-zA-Z_:][a-zA-Z0-9_:]*)");

    MutexLock lock(mu);
    for (const auto &e : entries_) {
        if (e->name != name)
            continue;
        if (e->type != type)
            ccm_panic("metric '", name, "' re-registered as ",
                      toString(type), " but is a ",
                      toString(e->type));
        return *e;
    }
    auto e = std::make_unique<Entry>();
    e->name = std::string(name);
    e->help = std::string(help);
    e->type = type;
    switch (type) {
      case MetricType::Counter:
        e->counter = std::make_unique<Counter>();
        break;
      case MetricType::Gauge:
        e->gauge = std::make_unique<Gauge>();
        break;
      case MetricType::Histogram:
        e->histogram = std::make_unique<Histogram>();
        break;
    }
    entries_.push_back(std::move(e));
    return *entries_.back();
}

Counter &
MetricsRegistry::counter(std::string_view name, std::string_view help)
{
    return *findOrCreate(name, help, MetricType::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name, std::string_view help)
{
    return *findOrCreate(name, help, MetricType::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name, std::string_view help)
{
    return *findOrCreate(name, help, MetricType::Histogram).histogram;
}

std::size_t
MetricsRegistry::size() const
{
    MutexLock lock(mu);
    return entries_.size();
}

std::string
MetricsRegistry::prometheusText() const
{
    std::ostringstream os;
    MutexLock lock(mu);
    for (const auto &e : entries_) {
        os << "# HELP " << e->name << " " << escapeHelp(e->help)
           << "\n";
        os << "# TYPE " << e->name << " " << toString(e->type)
           << "\n";
        switch (e->type) {
          case MetricType::Counter:
            os << e->name << " " << e->counter->value() << "\n";
            break;
          case MetricType::Gauge:
            os << e->name << " " << e->gauge->value() << "\n";
            break;
          case MetricType::Histogram: {
            const Histogram::Snapshot s = e->histogram->snapshot();
            std::size_t top = 0;
            for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
                if (s.buckets[i] > 0)
                    top = i;
            }
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i <= top && s.count > 0; ++i) {
                cum += s.buckets[i];
                os << e->name << "_bucket{le=\""
                   << Histogram::bucketHi(i) << "\"} " << cum << "\n";
            }
            os << e->name << "_bucket{le=\"+Inf\"} " << s.count
               << "\n";
            os << e->name << "_sum " << s.sum << "\n";
            os << e->name << "_count " << s.count << "\n";
            break;
          }
        }
    }
    return os.str();
}

JsonValue
MetricsRegistry::metricsJson() const
{
    JsonValue arr = JsonValue::array();
    MutexLock lock(mu);
    for (const auto &e : entries_) {
        JsonValue m = JsonValue::object();
        m.set("name", JsonValue::str(e->name));
        m.set("type", JsonValue::str(toString(e->type)));
        m.set("help", JsonValue::str(e->help));
        switch (e->type) {
          case MetricType::Counter:
            m.set("value", JsonValue::uint(e->counter->value()));
            break;
          case MetricType::Gauge:
            m.set("value", JsonValue::integer(e->gauge->value()));
            break;
          case MetricType::Histogram: {
            const Histogram::Snapshot s = e->histogram->snapshot();
            m.set("count", JsonValue::uint(s.count));
            m.set("sum", JsonValue::uint(s.sum));
            m.set("p50", JsonValue::real(s.percentile(0.50)));
            m.set("p95", JsonValue::real(s.percentile(0.95)));
            m.set("p99", JsonValue::real(s.percentile(0.99)));
            JsonValue buckets = JsonValue::array();
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
                if (s.buckets[i] == 0)
                    continue;
                cum += s.buckets[i];
                JsonValue b = JsonValue::object();
                b.set("le", JsonValue::uint(Histogram::bucketHi(i)));
                b.set("count", JsonValue::uint(cum));
                buckets.push(std::move(b));
            }
            m.set("buckets", std::move(buckets));
            break;
          }
        }
        arr.push(std::move(m));
    }
    return arr;
}

} // namespace ccm::obs
