#include "common/log.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/status.hh"

namespace ccm
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Process epoch for the line timestamps (first use wins). */
Clock::time_point
processEpoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

std::atomic<int> thresholdOverride{-1};

/** Next dense thread id to hand out. */
std::atomic<int> nextThreadId{0};

thread_local int cachedThreadId = -1;

thread_local std::uint64_t currentStream = 0;
thread_local bool currentStreamActive = false;

LogLevel
thresholdFromEnv()
{
    // The env is read once, before any thread could call setenv; the
    // tools never mutate the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("CCM_LOG_LEVEL");
    if (env == nullptr || *env == '\0')
        return LogLevel::Info;
    Expected<LogLevel> parsed = parseLogLevel(env);
    if (parsed.ok())
        return parsed.value();
    detail::logWrite(LogLevel::Error,
                     "CCM_LOG_LEVEL: " + parsed.status().toString() +
                         "; defaulting to info");
    return LogLevel::Info;
}

char
levelLetter(LogLevel level)
{
    switch (level) {
      case LogLevel::Trace: return 'T';
      case LogLevel::Debug: return 'D';
      case LogLevel::Info: return 'I';
      case LogLevel::Warn: return 'W';
      case LogLevel::Error: return 'E';
      case LogLevel::Off: return '?';
    }
    return '?';
}

} // namespace

const char *
toString(LogLevel level)
{
    switch (level) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Off: return "off";
    }
    return "?";
}

Expected<LogLevel>
parseLogLevel(std::string_view name)
{
    for (LogLevel level :
         {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
          LogLevel::Warn, LogLevel::Error, LogLevel::Off}) {
        if (name == toString(level))
            return level;
    }
    return Status::badConfig("unknown log level '", name,
                             "' (expected trace, debug, info, warn, "
                             "error or off)");
}

LogLevel
logThreshold()
{
    const int forced = thresholdOverride.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<LogLevel>(forced);
    static const LogLevel fromEnv = thresholdFromEnv();
    return fromEnv;
}

void
setLogThreshold(LogLevel level)
{
    thresholdOverride.store(static_cast<int>(level),
                            std::memory_order_relaxed);
}

int
logThreadId()
{
    if (cachedThreadId < 0)
        cachedThreadId =
            nextThreadId.fetch_add(1, std::memory_order_relaxed);
    return cachedThreadId;
}

double
logUptimeSeconds()
{
    return std::chrono::duration<double>(Clock::now() - processEpoch())
        .count();
}

LogStreamScope::LogStreamScope(std::uint64_t stream_id)
    : saved_(currentStream), savedActive_(currentStreamActive)
{
    currentStream = stream_id;
    currentStreamActive = true;
}

LogStreamScope::~LogStreamScope()
{
    currentStream = saved_;
    currentStreamActive = savedActive_;
}

namespace detail
{

void
logWrite(LogLevel level, const std::string &msg)
{
    char prefix[64];
    int n;
    if (currentStreamActive) {
        n = std::snprintf(prefix, sizeof(prefix),
                          "[%c %.6f t%d s%llu] ", levelLetter(level),
                          logUptimeSeconds(), logThreadId(),
                          static_cast<unsigned long long>(
                              currentStream));
    } else {
        n = std::snprintf(prefix, sizeof(prefix), "[%c %.6f t%d] ",
                          levelLetter(level), logUptimeSeconds(),
                          logThreadId());
    }
    if (n < 0)
        n = 0;

    // One buffer, one write: lines from concurrent threads never
    // interleave (POSIX stdio streams lock per call).
    std::string line;
    line.reserve(static_cast<std::size_t>(n) + msg.size() + 1);
    line.append(prefix, static_cast<std::size_t>(n));
    line.append(msg);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

// panic/fatal terminate the process, so they bypass the threshold:
// the one line explaining the exit must never be filtered out.

void
panicImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error, concat("panic: ", msg, " @ ", file, ":",
                                     line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error, concat("fatal: ", msg, " @ ", file, ":",
                                     line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    CCM_LOG_WARN("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    CCM_LOG_INFO(msg);
}

} // namespace detail

} // namespace ccm
