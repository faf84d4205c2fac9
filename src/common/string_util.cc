#include "common/string_util.h"

#include <charconv>
#include <cstdlib>

namespace graphtides {

std::vector<std::string_view> SplitString(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  // The characters std::isspace accepts in the "C" locale, without its
  // per-character locale lookup: this runs once per replayed line.
  auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  size_t b = 0;
  size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

Result<int64_t> ParseInt64(std::string_view s) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

namespace string_util_internal {

Status NotAnUnsignedInteger(std::string_view s) {
  return Status::ParseError("not an unsigned integer: '" + std::string(s) +
                            "'");
}

}  // namespace string_util_internal

Result<double> ParseDouble(std::string_view s) {
  // std::from_chars for double is not universally available; strtod needs a
  // terminated buffer.
  const std::string buf(s);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  return value;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace graphtides
