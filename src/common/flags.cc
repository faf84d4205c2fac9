#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/string_util.h"

namespace graphtides {

Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return Parse(args);
}

Result<Flags> Flags::Parse(const std::vector<std::string>& args) {
  Flags flags;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::ParseError("bare '--' is not a valid flag");
    }
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string name = body.substr(0, eq);
      if (name.empty()) return Status::ParseError("flag with empty name");
      flags.values_[name] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (or absent):
    // then it is a boolean.
    if (i + 1 < args.size() && !StartsWith(args[i + 1], "--")) {
      flags.values_[body] = args[i + 1];
      ++i;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> Flags::GetInt(const std::string& name,
                              int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  Result<int64_t> parsed = ParseInt64(it->second);
  if (!parsed.ok()) {
    return parsed.status().WithContext("flag --" + name);
  }
  return parsed;
}

Result<double> Flags::GetDouble(const std::string& name,
                                double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return parsed.status().WithContext("flag --" + name);
  }
  return parsed;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

namespace {

template <typename T>
Status OutOfRange(const std::string& text) {
  return Status::InvalidArgument(
      text + " is outside [" + std::to_string(std::numeric_limits<T>::min()) +
      ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
}

template <typename T>
Status StoreInteger(const std::string& text, T* dest) {
  if constexpr (std::is_signed_v<T>) {
    GT_ASSIGN_OR_RETURN(const int64_t value, ParseInt64(text));
    if (!std::in_range<T>(value)) return OutOfRange<T>(text);
    *dest = static_cast<T>(value);
  } else {
    // A well-formed negative number is a range error, not a typo.
    if (StartsWith(text, "-") && ParseInt64(text).ok()) {
      return OutOfRange<T>(text);
    }
    GT_ASSIGN_OR_RETURN(const uint64_t value, ParseUint64(text));
    if (!std::in_range<T>(value)) return OutOfRange<T>(text);
    *dest = static_cast<T>(value);
  }
  return Status::OK();
}

Status StoreBool(const std::string& text, bool* dest) {
  if (text == "true" || text == "1" || text == "yes") {
    *dest = true;
  } else if (text == "false" || text == "0" || text == "no") {
    *dest = false;
  } else {
    return Status::ParseError("not a boolean (true/false/1/0/yes/no): '" +
                              text + "'");
  }
  return Status::OK();
}

}  // namespace

void FlagTable::Bind(std::string name, Destination dest) {
  Flag flag{std::move(name), dest, "N", ""};
  std::visit(
      [&flag](auto d) {
        using D = decltype(d);
        if constexpr (std::is_same_v<D, Millis>) {
          flag.metavar = "MS";
          flag.default_text = std::to_string(d.dest->millis());
        } else if constexpr (std::is_same_v<D, std::string*>) {
          flag.metavar = "TEXT";
          flag.default_text = *d;
        } else if constexpr (std::is_same_v<D, bool*>) {
          flag.metavar = "";
          if (*d) flag.default_text = "true";
        } else if constexpr (std::is_same_v<D, double*>) {
          flag.metavar = "X";
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%g", *d);
          flag.default_text = buf;
        } else {
          flag.default_text = std::to_string(*d);
        }
      },
      dest);
  flags_.push_back(std::move(flag));
}

Status FlagTable::Parse(const std::vector<std::string>& args) {
  GT_ASSIGN_OR_RETURN(given_, Flags::Parse(args));
  std::vector<std::pair<const Flag*, std::string>> bound;
  for (const auto& [name, value] : given_.values()) {
    if (name == "help") continue;
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    bound.emplace_back(&*flag, value);
  }
  help_ = given_.Has("help");
  if (help_) return Status::OK();
  if (!given_.positional().empty()) {
    return Status::InvalidArgument("unexpected argument '" +
                                   given_.positional()[0] + "'");
  }
  for (const auto& [flag, text] : bound) {
    const Status stored = std::visit(
        [&text](auto d) -> Status {
          using D = decltype(d);
          if constexpr (std::is_same_v<D, Millis>) {
            int64_t ms = 0;
            GT_RETURN_NOT_OK(StoreInteger(text, &ms));
            constexpr int64_t kMaxMs =
                std::numeric_limits<int64_t>::max() / 1000000;
            if (ms > kMaxMs || ms < -kMaxMs) {
              return Status::InvalidArgument(text +
                                             " ms does not fit a duration");
            }
            *d.dest = Duration::FromMillis(ms);
            return Status::OK();
          } else if constexpr (std::is_same_v<D, std::string*>) {
            *d = text;
            return Status::OK();
          } else if constexpr (std::is_same_v<D, bool*>) {
            return StoreBool(text, d);
          } else if constexpr (std::is_same_v<D, double*>) {
            GT_ASSIGN_OR_RETURN(*d, ParseDouble(text));
            return Status::OK();
          } else {
            return StoreInteger(text, d);
          }
        },
        flag->dest);
    GT_RETURN_NOT_OK(stored.WithContext("flag --" + flag->name));
  }
  return Status::OK();
}

std::optional<int> FlagTable::ParseCommandLine(int argc,
                                               const char* const* argv) {
  const std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
  if (Status st = Parse(args); !st.ok()) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), st.ToString().c_str());
    return 1;
  }
  if (!help_) return std::nullopt;
  std::fputs(Usage().c_str(), stdout);
  return 0;
}

std::string FlagTable::Usage() const {
  std::string out = "usage: " + program_ + " [--FLAG VALUE]...\n";
  size_t width = 0;
  for (const Flag& f : flags_) {
    width = std::max(width, f.name.size() + f.metavar.size() + 1);
  }
  for (const Flag& f : flags_) {
    std::string line = "  --" + f.name;
    if (!f.metavar.empty()) line += " " + f.metavar;
    if (!f.default_text.empty()) {
      line.resize(width + 6, ' ');
      line += "(default " + f.default_text + ")";
    }
    out += line + "\n";
  }
  return out;
}

Result<HostPort> ParseHostPort(const std::string& spec,
                               const std::string& flag, bool allow_port_zero) {
  const auto parts = SplitString(spec, ':');
  if (parts.size() != 2 || parts[0].empty()) {
    return Status::InvalidArgument("--" + flag + " expects HOST:PORT");
  }
  const auto port = ParseUint64(parts[1]);
  if (!port.ok() || *port > 65535 || (*port == 0 && !allow_port_zero)) {
    return Status::InvalidArgument("bad port in --" + flag);
  }
  return HostPort{std::string(parts[0]), static_cast<uint16_t>(*port)};
}

}  // namespace graphtides
