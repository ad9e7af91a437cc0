/**
 * @file
 * Checked number readers for command-line and spec text: the whole
 * string must be one base-10 number inside a stated range, so "abc",
 * "12x", an empty string and an overflowing value are all errors
 * rather than a silent 0 or a wrapped value (what atoi gives).
 */

#ifndef PIPESTITCH_BASE_PARSE_HH
#define PIPESTITCH_BASE_PARSE_HH

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace pipestitch {

/** Read all of @p text as an integer in [@p lo, @p hi] into @p out;
 *  false, leaving @p out alone, otherwise. */
inline bool
parseInteger(std::string_view text, int64_t lo, int64_t hi,
             int64_t &out)
{
    int64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/** Read all of @p text as a real number in [@p lo, @p hi] into
 *  @p out; false, leaving @p out alone, otherwise (NaN included). */
inline bool
parseReal(std::string_view text, double lo, double hi, double &out)
{
    double v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

} // namespace pipestitch

#endif // PIPESTITCH_BASE_PARSE_HH
