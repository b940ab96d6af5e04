#include "common/cli.hh"

#include <charconv>
#include <cmath>

namespace ccm
{

Expected<std::uint64_t>
parseDecimal(std::string_view what, std::string_view text,
             std::uint64_t max)
{
    // from_chars takes no sign (for an unsigned type), no space and no
    // base prefix, and reports overflow instead of clamping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v > max)
        return Status::badConfig(what, " needs a number from 0 to ", max,
                                 ", got '", text, "'");
    return v;
}

Status
parseRate(std::string_view what, std::string_view text, double &out)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v))
        return Status::badConfig(what, " needs a finite number, got '",
                                 text, "'");
    out = v;
    return Status::ok();
}

bool
ArgCursor::next()
{
    if (pos_ + 1 >= argc_)
        return false;
    flag_ = argv_[++pos_];
    return true;
}

Status
ArgCursor::value(std::string &out)
{
    if (pos_ + 1 >= argc_)
        return Status::badConfig(flag_, " needs a value");
    out = argv_[++pos_];
    return Status::ok();
}

Status
ArgCursor::rate(double &out)
{
    std::string text;
    Status s = value(text);
    return s.isOk() ? parseRate(flag_, text, out) : s;
}

Status
ArgCursor::logLevel()
{
    std::string text;
    Status s = value(text);
    if (!s.isOk())
        return s;
    Expected<LogLevel> lvl = parseLogLevel(text);
    if (!lvl.ok())
        return lvl.status();
    setLogThreshold(lvl.value());
    return Status::ok();
}

} // namespace ccm
