#include "common/flags.h"

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
