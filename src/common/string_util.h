// Small string helpers shared across modules.
#ifndef GRAPHTIDES_COMMON_STRING_UTIL_H_
#define GRAPHTIDES_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace graphtides {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Parses a base-10 signed integer occupying the whole string.
Result<int64_t> ParseInt64(std::string_view s);

namespace string_util_internal {
/// The ParseError of ParseUint64 for `s`.
Status NotAnUnsignedInteger(std::string_view s);
}  // namespace string_util_internal

/// \brief Reads the decimal digits at `p` (up to `end`) as one unsigned
/// integer: one or more digits worth at most 2^64 - 1. Returns the first
/// byte after the digits, or nullptr when there is no digit or the value
/// overflows.
///
/// The stream parser reads ids with it, an edge id's two ends in turn. Up
/// to 19 digits cannot overflow, so only longer runs are read a second
/// time with overflow checks.
inline const char* ReadUint64(const char* p, const char* end,
                              uint64_t* value) {
  const char* const first = p;
  uint64_t v = 0;
  for (; p < end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    v = v * 10 + digit;
  }
  if (p == first) return nullptr;
  if (p - first > std::numeric_limits<uint64_t>::digits10) {
    v = 0;
    for (const char* q = first; q < p; ++q) {
      if (__builtin_mul_overflow(v, 10, &v) ||
          __builtin_add_overflow(v, static_cast<unsigned>(*q - '0'), &v)) {
        return nullptr;
      }
    }
  }
  *value = v;
  return p;
}

/// \brief Parses a base-10 unsigned integer occupying the whole string:
/// one or more digits (no sign, no spaces) worth at most 2^64 - 1.
///
/// Inline, like ReadUint64; the error text is built out of line.
inline Result<uint64_t> ParseUint64(std::string_view s) {
  uint64_t value = 0;
  const char* const end = s.data() + s.size();
  const char* const stop = ReadUint64(s.data(), end, &value);
  if (stop == nullptr || stop != end) {
    return string_util_internal::NotAnUnsignedInteger(s);
  }
  return value;
}

/// Parses a floating-point number occupying the whole string.
Result<double> ParseDouble(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_STRING_UTIL_H_
