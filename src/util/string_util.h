// Small string helpers shared by graph I/O and report formatting.

#ifndef SPAMMASS_UTIL_STRING_UTIL_H_
#define SPAMMASS_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace spammass::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any run of whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Allocation-free field scanner: skips leading ASCII whitespace in `*s`,
/// returns the next whitespace-delimited field as a view into the original
/// buffer, and advances `*s` past it. Returns an empty view (and leaves `*s`
/// empty) when no field remains. The graph I/O hot loops use this instead of
/// SplitWhitespace, which allocates one std::string per field.
std::string_view NextField(std::string_view* s);

/// Parses a whole field as a T via std::from_chars: a decimal integer for
/// integral T, fixed or scientific notation for floating-point T. Returns
/// false when the field is empty, has anything left over (a '+' sign,
/// whitespace, trailing junk, a '-' for unsigned T) or is out of T's range.
template <typename T>
bool ParseNumber(std::string_view field, T* out) {
  const char* last = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a count with thousands separators ("73,300,000").
std::string FormatWithCommas(uint64_t value);

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_STRING_UTIL_H_
