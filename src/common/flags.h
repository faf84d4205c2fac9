// Minimal command-line flag parsing for the framework's standalone tools
// (generator, replayer, validator, fault injector, analyzer). Flags take
// the form `--name value` or `--name=value`; bare `--name` sets a boolean.
#ifndef GRAPHTIDES_COMMON_FLAGS_H_
#define GRAPHTIDES_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace graphtides {

/// \brief Parsed command line: flag map + positional arguments.
class Flags {
 public:
  /// Parses argv (excluding argv[0]). ParseError on malformed flags.
  static Result<Flags> Parse(int argc, const char* const* argv);
  static Result<Flags> Parse(const std::vector<std::string>& args);

  bool Has(const std::string& name) const { return values_.contains(name); }

  /// Typed accessors with defaults; ParseError if present but malformed.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const;
  Result<double> GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of flags that were provided but are not in `known` — for
  /// catching typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// \brief A HOST:PORT endpoint given on the command line.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// \brief Splits `spec`, the value of `--flag`, at its one ':' into a
/// non-empty host and a port. The port must be a number in [1, 65535]; with
/// `allow_port_zero` (a listener) 0 is accepted too and asks the OS for an
/// ephemeral port.
/// InvalidArgument "--flag expects HOST:PORT" or "bad port in --flag".
Result<HostPort> ParseHostPort(const std::string& spec,
                               const std::string& flag,
                               bool allow_port_zero = false);

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_FLAGS_H_
