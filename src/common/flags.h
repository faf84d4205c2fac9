// Command-line flag parsing for the framework's standalone tools
// (generator, replayer, validator, fault injector, analyzer). Flags take
// the form `--name value` or `--name=value`; bare `--name` sets a boolean.
// Each tool declares its flags once in a FlagTable; Flags is the untyped
// parse underneath it.
#ifndef GRAPHTIDES_COMMON_FLAGS_H_
#define GRAPHTIDES_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
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

  /// Every flag given, by name, with its value ("true" for a bare flag).
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// \brief A tool's command line, declared once: each flag is bound to the
/// variable that holds its value, usually a field of the options struct
/// the tool hands to the library.
///
/// The value a destination holds when it is bound is the flag's default;
/// Parse overwrites only the flags given. Parse rejects an unknown flag, a
/// positional argument, a malformed value and a value the destination
/// cannot hold (a negative count, an int overflow, a boolean other than
/// true/false/1/0/yes/no), each naming its flag. Range and choice rules
/// stay with the validators that own them.
class FlagTable {
 public:
  explicit FlagTable(std::string program) : program_(std::move(program)) {}

  /// Binds `--name` to `*dest`, one of std::string, bool, int, int64_t,
  /// uint32_t, uint64_t (size_t) and double. A bool flag given bare is set.
  template <typename T>
  void Add(std::string name, T* dest) {
    Bind(std::move(name), Destination(dest));
  }
  /// Binds `--name` to `*dest` as a whole number of milliseconds.
  void AddMillis(std::string name, Duration* dest) {
    Bind(std::move(name), Destination(Millis{dest}));
  }

  /// Parses `args` (argv without argv[0]) into the bound destinations.
  /// With `--help` among them nothing is stored and help() turns true.
  Status Parse(const std::vector<std::string>& args);

  /// \brief Parses argv for a tool's main(). Returns the exit code when the
  /// tool should stop: 0 after printing Usage() for `--help`, 1 after
  /// printing "PROGRAM: <status>" to stderr for a rejected command line;
  /// nullopt when the tool should run.
  std::optional<int> ParseCommandLine(int argc, const char* const* argv);

  /// True when the parsed command line set `--name`.
  bool Given(const std::string& name) const { return given_.Has(name); }
  bool help() const { return help_; }

  /// "usage: PROGRAM [--FLAG VALUE]..." and one line per flag, in
  /// declaration order, with a metavar for its type and its default.
  std::string Usage() const;

 private:
  struct Millis {
    Duration* dest;
  };
  using Destination = std::variant<std::string*, bool*, int*, int64_t*,
                                   uint32_t*, uint64_t*, double*, Millis>;
  struct Flag {
    std::string name;
    Destination dest;
    std::string metavar;
    std::string default_text;  ///< empty: no default shown
  };

  void Bind(std::string name, Destination dest);

  std::string program_;
  std::vector<Flag> flags_;
  Flags given_;
  bool help_ = false;
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
