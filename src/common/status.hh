/**
 * @file
 * Recoverable error handling: a lightweight Status / Expected<T>
 * result type.
 *
 * ccm_fatal is the right tool when a bench binary hits a bad
 * configuration — but a harness sweeping a whole suite, or a server
 * ingesting traces from many producers, must survive one corrupt
 * input and keep going.  Fallible operations therefore return a
 * Status (or an Expected<T> carrying either a value or a Status);
 * thin fatal-on-error wrappers keep the one-liner ergonomics for the
 * binaries that do want to die.
 */

#ifndef CCM_COMMON_STATUS_HH
#define CCM_COMMON_STATUS_HH

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace ccm
{

/** Broad failure category carried by a Status. */
enum class ErrorCode
{
    Ok = 0,
    BadConfig,    ///< invalid user-supplied parameters
    CorruptTrace, ///< malformed trace-file contents
    IoError,      ///< the OS refused an open/read/write/close
    NotFound,     ///< named entity (workload, file) does not exist
    Unsupported,  ///< recognized but unhandled (e.g. future version)
    Internal,     ///< invariant violation escaped as an error
    Aborted,      ///< operation cut short (disconnect, drain, reap)
    Unavailable,  ///< resource refused: backpressure shed, draining
};

/** Stable lower-case name of @p code (e.g. "corrupt-trace"). */
const char *errorCodeName(ErrorCode code);

/**
 * Thread-safe strerror replacement for building Status messages.
 * std::strerror writes into shared static storage and is flagged by
 * clang-tidy's concurrency-mt-unsafe — daemon error paths run on many
 * threads, so errno formatting goes through strerror_r here instead.
 */
std::string errnoString(int err);

/** The result of a fallible operation: Ok, or a code plus message. */
class Status
{
  public:
    /** Default-constructed status is Ok. */
    Status() = default;

    static Status ok() { return Status(); }

    static Status
    error(ErrorCode code, std::string msg)
    {
        Status s;
        s.code_ = code;
        s.msg = std::move(msg);
        return s;
    }

    template <typename... Args>
    static Status
    badConfig(Args &&...args)
    {
        return error(ErrorCode::BadConfig,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    corruptTrace(Args &&...args)
    {
        return error(ErrorCode::CorruptTrace,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    ioError(Args &&...args)
    {
        return error(ErrorCode::IoError,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    notFound(Args &&...args)
    {
        return error(ErrorCode::NotFound,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    unsupported(Args &&...args)
    {
        return error(ErrorCode::Unsupported,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    internal(Args &&...args)
    {
        return error(ErrorCode::Internal,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    aborted(Args &&...args)
    {
        return error(ErrorCode::Aborted,
                     detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    unavailable(Args &&...args)
    {
        return error(ErrorCode::Unavailable,
                     detail::concat(std::forward<Args>(args)...));
    }

    bool isOk() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }

    /** Failure message; empty for Ok. */
    const std::string &message() const { return msg; }

    /**
     * Prepend a context frame: "<ctx>: <message>".  Chains, so the
     * outermost caller's context reads first, e.g.
     * "loading suite: workload 'gcc': bad trace magic in gcc.bin".
     */
    Status
    withContext(const std::string &ctx) const
    {
        if (isOk())
            return *this;
        return error(code_, ctx + ": " + msg);
    }

    /** "corrupt-trace: bad trace magic in foo.bin" (or "ok"). */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string msg;
};

/** Die (ccm_fatal-style) if @p s is an error; no-op otherwise. */
void fatalIfError(const Status &s);

/**
 * Either a value or the Status explaining why there is none.
 * Accessing value() on an error is a programming bug (panics).
 */
template <typename T>
class Expected
{
  public:
    Expected(T v) : val(std::move(v)) {}

    Expected(Status s) : err(std::move(s))
    {
        if (err.isOk())
            ccm_panic("Expected constructed from an Ok status");
    }

    /**
     * The value or error of @p other, its value converted to T (an
     * Expected<std::unique_ptr<Derived>> into one of a base pointer).
     */
    template <typename U,
              typename = std::enable_if_t<std::is_convertible_v<U, T>>>
    Expected(Expected<U> &&other) : err(other.status())
    {
        if (other.ok())
            val.emplace(other.take());
    }

    bool ok() const { return val.has_value(); }

    /** Ok status when a value is present, the error otherwise. */
    const Status &status() const { return err; }

    T &
    value()
    {
        if (!ok())
            ccm_panic("Expected::value() on error: ", err.toString());
        return *val;
    }

    const T &
    value() const
    {
        if (!ok())
            ccm_panic("Expected::value() on error: ", err.toString());
        return *val;
    }

    /** Move the value out (e.g. into a unique_ptr variable). */
    T &&
    take()
    {
        if (!ok())
            ccm_panic("Expected::take() on error: ", err.toString());
        return std::move(*val);
    }

    /** The value, or @p fallback when this holds an error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? *val : std::move(fallback);
    }

  private:
    std::optional<T> val;
    Status err;
};

} // namespace ccm

#endif // CCM_COMMON_STATUS_HH
