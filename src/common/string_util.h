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

/// \brief Parses a base-10 unsigned integer occupying the whole string:
/// one or more digits (no sign, no spaces) worth at most 2^64 - 1.
///
/// Inline because the replay parse path calls it for every id; the error
/// text is built out of line. Up to 19 digits cannot overflow, so only
/// longer strings pay the overflow checks.
inline Result<uint64_t> ParseUint64(std::string_view s) {
  if (s.empty()) return string_util_internal::NotAnUnsignedInteger(s);
  const bool may_overflow =
      s.size() > size_t{std::numeric_limits<uint64_t>::digits10};
  uint64_t value = 0;
  for (const char c : s) {
    const unsigned digit = static_cast<unsigned char>(c) - unsigned{'0'};
    if (digit > 9) return string_util_internal::NotAnUnsignedInteger(s);
    if (!may_overflow) {
      value = value * 10 + digit;
    } else if (__builtin_mul_overflow(value, 10, &value) ||
               __builtin_add_overflow(value, digit, &value)) {
      return string_util_internal::NotAnUnsignedInteger(s);
    }
  }
  return value;
}

/// Parses a floating-point number occupying the whole string.
Result<double> ParseDouble(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_STRING_UTIL_H_
