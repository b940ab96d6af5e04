/**
 * @file
 * The command-line front end every tool shares, and the number rule
 * the serve config file shares with it.
 *
 * Number rule: an integer is decimal digits only — no sign, no space,
 * no `0x`, no trailing text — checked against the range of the field
 * it lands in before it is stored, so `-1` never wraps and
 * `4294967298` never truncates into an `unsigned`.  A `*-kb` size is
 * capped at kMaxKb, so its `× 1024` cannot wrap.  A rate is one
 * whole, finite number.  Policy bounds (`refs > 0`, a rate in (0, 1],
 * cache geometry) stay with each config's validate().
 *
 * Every parser returns a bad-config Status and never exits: a tool's
 * main logs it as one line and returns 1.
 */

#ifndef CCM_COMMON_CLI_HH
#define CCM_COMMON_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.hh"

namespace ccm
{

/** The largest `*-kb` value whose byte count fits a std::size_t. */
inline constexpr std::uint64_t kMaxKb =
    std::numeric_limits<std::size_t>::max() / 1024;

/** The largest value a T holds, as the bound parseNumber checks. */
template <typename T>
constexpr std::uint64_t
maxOf()
{
    static_assert(std::is_integral_v<T>);
    return static_cast<std::uint64_t>(std::numeric_limits<T>::max());
}

/**
 * Parse @p text as a decimal integer in [0, @p max]; @p what names
 * the value in the error message ("--refs", "key 'l1-kb'").
 */
Expected<std::uint64_t> parseDecimal(std::string_view what,
                                     std::string_view text,
                                     std::uint64_t max);

/** parseDecimal into @p out, bounded by T's range (or @p max). */
template <typename T>
Status
parseNumber(std::string_view what, std::string_view text, T &out,
            std::uint64_t max = maxOf<T>())
{
    Expected<std::uint64_t> v = parseDecimal(what, text, max);
    if (!v.ok())
        return v.status();
    out = static_cast<T>(v.value());
    return Status::ok();
}

/** Parse @p text as one whole, finite number into @p out. */
Status parseRate(std::string_view what, std::string_view text,
                 double &out);

/**
 * One pass over argv for a tool's main loop: step to each argument,
 * then take the current flag's value.  A missing value or a
 * malformed number is a bad-config Status naming the flag.
 */
class ArgCursor
{
  public:
    /** Walk argv[first..argc). */
    ArgCursor(int argc, char **argv, int first = 1)
        : argc_(argc), argv_(argv), pos_(first - 1)
    {
    }

    /** Step to the next argument; false past the last one. */
    bool next();

    /** The current argument. */
    const std::string &flag() const { return flag_; }

    /** Consume the argument after the flag as its value. */
    Status value(std::string &out);

    /** The value as a number (parseNumber; kMaxKb for a `*-kb`). */
    template <typename T>
    Status
    number(T &out, std::uint64_t max = maxOf<T>())
    {
        std::string text;
        Status s = value(text);
        return s.isOk() ? parseNumber(flag_, text, out, max) : s;
    }

    /** The value as a rate (parseRate). */
    Status rate(double &out);

    /** --log-level L: parse L and apply it as the log threshold. */
    Status logLevel();

  private:
    int argc_;
    char **argv_;
    int pos_;
    std::string flag_;
};

} // namespace ccm

#endif // CCM_COMMON_CLI_HH
