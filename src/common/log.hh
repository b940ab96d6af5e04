/**
 * @file
 * Leveled structured logging: the one sanctioned path to stderr.
 *
 * Every line carries the same prefix —
 *
 *   [E 12.345678 t3 s7] message
 *
 * level letter (T/D/I/W/E), monotonic seconds since process start,
 * a dense per-thread id (t0 is the first thread that ever logged),
 * and, inside a LogStreamScope, the serve stream id the thread is
 * working on.  The whole line is formatted into one buffer and
 * written with a single fwrite, so concurrent writers cannot
 * interleave mid-line — no lock is taken and no LockRank is involved,
 * which means logging is safe while holding any mutex.
 *
 * The threshold comes from the CCM_LOG_LEVEL environment variable
 * (trace | debug | info | warn | error | off; default info), read
 * once.  The CCM_LOG_* macros evaluate their arguments only when the
 * level is enabled, so a disabled debug line costs one atomic load.
 *
 * Raw `std::cerr` / `fprintf(stderr, ...)` anywhere else in src/ or
 * tools/ is a lint error (tools/ccm-lint), mirroring the raw-sync ban:
 * ad-hoc writes would bypass the prefix, the threshold, and the
 * atomicity guarantee.
 *
 * The gem5-flavoured status/error macros live here too and route
 * through the same layer: ccm_panic for simulator bugs, ccm_fatal for
 * a bad configuration that reached a constructor unchecked, ccm_warn /
 * ccm_inform for status.
 */

#ifndef CCM_COMMON_LOG_HH
#define CCM_COMMON_LOG_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace ccm
{

// common/status.hh includes this header (Expected panics through
// ccm_panic), so the one Expected-returning declaration below uses a
// forward declaration instead of including it back.
template <typename T>
class Expected;

/** Severity levels, ascending; Off disables everything. */
enum class LogLevel : int
{
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
    Off = 5,
};

/** Stable lower-case name ("trace", ..., "off"). */
const char *toString(LogLevel level);

/** Parse a CCM_LOG_LEVEL value (lower-case level names). */
Expected<LogLevel> parseLogLevel(std::string_view name);

/** The active threshold (CCM_LOG_LEVEL, cached at first use). */
LogLevel logThreshold();

/** Override the threshold at runtime (tools' --log-level, tests). */
void setLogThreshold(LogLevel level);

/** True when a message at @p level would be written. */
inline bool
logEnabled(LogLevel level)
{
    return level != LogLevel::Off && level >= logThreshold();
}

/**
 * Dense id of the calling thread: 0, 1, 2, ... in first-log order.
 * Stable for the thread's lifetime; also stamped into span traces so
 * log lines and trace rows correlate.
 */
int logThreadId();

/** Monotonic seconds since process start (the line timestamps). */
double logUptimeSeconds();

/**
 * While alive, log lines from this thread carry "s<id>" — used by the
 * serve daemon so per-stream work is attributable in shared logs.
 * Nests; the innermost scope wins.
 */
class LogStreamScope
{
  public:
    explicit LogStreamScope(std::uint64_t stream_id);
    ~LogStreamScope();

    LogStreamScope(const LogStreamScope &) = delete;
    LogStreamScope &operator=(const LogStreamScope &) = delete;

  private:
    std::uint64_t saved_;
    bool savedActive_;
};

namespace detail
{

/** Format the prefix and write one complete line (no level check). */
void logWrite(LogLevel level, const std::string &msg);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace ccm

/**
 * Abort the simulation: something happened that should never happen
 * regardless of user input (a simulator bug).
 */
#define ccm_panic(...) \
    ::ccm::detail::panicImpl(__FILE__, __LINE__, \
                             ::ccm::detail::concat(__VA_ARGS__))

/**
 * Exit (status 1) on a bad configuration.  Entry points reject user
 * input with a validate() Status first; this is the constructors'
 * backstop, and it always exits.
 */
#define ccm_fatal(...) \
    ::ccm::detail::fatalImpl(__FILE__, __LINE__, \
                             ::ccm::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define ccm_warn(...) \
    ::ccm::detail::warnImpl(::ccm::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define ccm_inform(...) \
    ::ccm::detail::informImpl(::ccm::detail::concat(__VA_ARGS__))

/** Log at an explicit level; arguments are streamed like ccm_warn. */
#define CCM_LOG(level, ...) \
    do { \
        if (::ccm::logEnabled(level)) \
            ::ccm::detail::logWrite( \
                level, ::ccm::detail::concat(__VA_ARGS__)); \
    } while (false)

#define CCM_LOG_TRACE(...) CCM_LOG(::ccm::LogLevel::Trace, __VA_ARGS__)
#define CCM_LOG_DEBUG(...) CCM_LOG(::ccm::LogLevel::Debug, __VA_ARGS__)
#define CCM_LOG_INFO(...) CCM_LOG(::ccm::LogLevel::Info, __VA_ARGS__)
#define CCM_LOG_WARN(...) CCM_LOG(::ccm::LogLevel::Warn, __VA_ARGS__)
#define CCM_LOG_ERROR(...) CCM_LOG(::ccm::LogLevel::Error, __VA_ARGS__)

#endif // CCM_COMMON_LOG_HH
