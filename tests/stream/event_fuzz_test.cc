// Deterministic-shuffle fuzzing of the stream-format parser: valid lines
// are mutilated by a seeded RNG (truncation, field swaps, embedded NUL/CR,
// overlong payloads, byte noise) and fed to the single-walk
// ParseEventLineView, to ParseEventLine (the same walk plus a copy), and to
// an oracle that spells the grammar out with the general CSV splitter.
// None may crash, all must agree on accept/reject, on the status string
// and on every field of the parsed event, and the strict file validator
// must flag exactly the lines the parser rejects.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "stream/event.h"
#include "stream/event_view.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

constexpr uint64_t kSeed = 0x667a7a5f31ULL;  // stable across runs

/// Ids of every width the grammar accepts: short ones, and 19- and
/// 20-digit ones up to 2^64 - 1, where the overflow checks start.
VertexId RandomId(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return 1000000000000000000ULL + rng.NextBounded(1000);  // 19 digits
    case 1:
      return ~VertexId{0} - rng.NextBounded(1000);  // 20 digits
    default:
      return rng.NextBounded(1000);
  }
}

/// Payloads shaped like the generator's: JSON whose quotes the CSV
/// rendering doubles, several to a field.
std::string RandomState(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return "{\"v\":" + std::to_string(rng.NextBounded(10000)) + ",\"r\":1}";
    case 1:
      return "{\"w\":" + std::to_string(rng.NextBounded(100)) + "}";
    case 2:
      return "state-" + std::to_string(rng.NextBounded(1000));
    default:
      return "w=" + std::to_string(rng.NextBounded(10));
  }
}

Event RandomValidEvent(Rng& rng) {
  const VertexId a = RandomId(rng);
  const VertexId b = RandomId(rng);
  switch (rng.NextBounded(9)) {
    case 0:
      return Event::AddVertex(a, RandomState(rng));
    case 1:
      return Event::RemoveVertex(a);
    case 2:
      return Event::UpdateVertex(a, "u,pd\"ate");  // forces quoting
    case 3:
      return Event::AddEdge(a, b, RandomState(rng));
    case 4:
      return Event::RemoveEdge(a, b);
    case 5:
      return Event::UpdateEdge(a, b, RandomState(rng));
    case 6:
      return Event::Marker(std::string("m").append(std::to_string(a)));
    case 7:
      return Event::SetRate(1.5);
    default:
      return Event::Pause(Duration::FromMillis(5));
  }
}

/// A valid line. One in eight pads its id field with leading zeros and
/// one in sixteen quotes its command: shapes the canonical rendering never
/// writes but the grammar accepts.
std::string RandomValidLine(Rng& rng) {
  std::string line = FormatEventLine(RandomValidEvent(rng));
  if (rng.NextBounded(8) == 0) {
    line.insert(line.find(',') + 1, 1 + rng.NextBounded(3), '0');
  }
  if (rng.NextBounded(16) == 0) {
    line.insert(line.find(','), 1, '"');
    line.insert(0, 1, '"');
  }
  return line;
}

char RandomByte(Rng& rng) {
  // Bias toward structurally meaningful bytes so mutations actually hit
  // the parser's state machine, not just payload content.
  static constexpr char kHostile[] = {',', '"', '\0', '\r', '\n',
                                      '-', '#', ' ',  '\t', '0'};
  if (rng.NextBool(0.6)) {
    return kHostile[rng.NextBounded(std::size(kHostile))];
  }
  return static_cast<char>(rng.NextBounded(256));
}

std::string MutateLine(std::string line, Rng& rng) {
  const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
  for (int m = 0; m < mutations; ++m) {
    if (line.empty()) {
      line.push_back(RandomByte(rng));
      continue;
    }
    switch (rng.NextBounded(8)) {
      case 0:  // truncate at a random point
        line.resize(rng.NextBounded(line.size() + 1));
        break;
      case 1: {  // delete one byte
        line.erase(rng.NextBounded(line.size()), 1);
        break;
      }
      case 2: {  // insert one byte
        line.insert(line.begin() + static_cast<ptrdiff_t>(
                                       rng.NextBounded(line.size() + 1)),
                    RandomByte(rng));
        break;
      }
      case 3: {  // overwrite one byte
        line[rng.NextBounded(line.size())] = RandomByte(rng);
        break;
      }
      case 4: {  // swap the comma-separated fields around
        std::vector<std::string> parts;
        size_t start = 0;
        for (size_t i = 0; i <= line.size(); ++i) {
          if (i == line.size() || line[i] == ',') {
            parts.push_back(line.substr(start, i - start));
            start = i + 1;
          }
        }
        if (parts.size() >= 2) {
          const size_t x = rng.NextBounded(parts.size());
          const size_t y = rng.NextBounded(parts.size());
          std::swap(parts[x], parts[y]);
          line.clear();
          for (size_t i = 0; i < parts.size(); ++i) {
            if (i > 0) line.push_back(',');
            line += parts[i];
          }
        }
        break;
      }
      case 5:  // duplicate a suffix (overlong / repeated-field shapes)
        line += line.substr(rng.NextBounded(line.size()));
        break;
      case 6: {  // blow up the tail into an overlong payload
        line.append(1 + rng.NextBounded(4096), 'A');
        break;
      }
      default:  // embed a NUL mid-line
        line.insert(line.begin() + static_cast<ptrdiff_t>(
                                       rng.NextBounded(line.size() + 1)),
                    '\0');
        break;
    }
  }
  return line;
}

/// ParseUint64's grammar read by std::from_chars, apart from the digit
/// reader the parser shares with ParseUint64.
Result<uint64_t> OracleUint64(const std::string& s) {
  uint64_t value = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("not an unsigned integer: '" + s + "'");
  }
  return value;
}

/// The grammar as the general CSV splitter reads it: an implementation
/// independent of ParseEventLineView's single walk, kept as the oracle the
/// walk is fuzzed against.
Result<Event> OracleParseEventLine(std::string_view line) {
  const std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    return Status::NotFound("blank or comment line");
  }
  GT_ASSIGN_OR_RETURN(const std::vector<std::string> fields,
                      ParseCsvLine(trimmed));
  if (fields.size() != 3) {
    return Status::ParseError("expected 3 fields, got " +
                              std::to_string(fields.size()));
  }
  Event e;
  bool known = false;
  for (int t = 0; t <= static_cast<int>(EventType::kPause) && !known; ++t) {
    e.type = static_cast<EventType>(t);
    known = EventTypeName(e.type) == fields[0];
  }
  if (!known) {
    return Status::ParseError("unknown command: '" + fields[0] + "'");
  }
  if (IsVertexOp(e.type)) {
    GT_ASSIGN_OR_RETURN(e.vertex, OracleUint64(fields[1]));
    e.payload = fields[2];
  } else if (IsEdgeOp(e.type)) {
    const std::string& id = fields[1];
    const size_t dash = id.find('-');
    if (dash == std::string::npos) {
      return Status::ParseError("edge id missing '-': '" + id + "'");
    }
    GT_ASSIGN_OR_RETURN(e.edge.src, OracleUint64(id.substr(0, dash)));
    GT_ASSIGN_OR_RETURN(e.edge.dst, OracleUint64(id.substr(dash + 1)));
    e.payload = fields[2];
  } else if (e.type == EventType::kMarker) {
    e.payload = fields[2];
  } else if (e.type == EventType::kSetRate) {
    GT_ASSIGN_OR_RETURN(e.rate_factor, ParseDouble(fields[2]));
    if (e.rate_factor <= 0.0) {
      return Status::ParseError("rate factor must be positive");
    }
  } else {
    GT_ASSIGN_OR_RETURN(const int64_t ms, ParseInt64(fields[2]));
    if (ms < 0) return Status::ParseError("pause must be non-negative");
    e.pause = Duration::FromMillis(ms);
  }
  return e;
}

/// Every field, including the ones Event::operator== skips for the type.
void ExpectSameFields(const Event& actual, const Event& expected,
                      const std::string& where) {
  EXPECT_EQ(actual.type, expected.type) << where;
  EXPECT_EQ(actual.vertex, expected.vertex) << where;
  EXPECT_EQ(actual.edge, expected.edge) << where;
  EXPECT_EQ(actual.payload, expected.payload) << where;
  EXPECT_EQ(actual.rate_factor, expected.rate_factor) << where;
  EXPECT_EQ(actual.pause, expected.pause) << where;
}

TEST(EventFuzzTest, ParsersNeverCrashAndAlwaysAgree) {
  Rng rng(kSeed);
  std::string scratch;
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = MutateLine(RandomValidLine(rng), rng);
    const std::string where =
        "iteration " + std::to_string(i) + "\nline: " + line;
    const Result<Event> oracle = OracleParseEventLine(line);
    const Result<EventView> viewed = ParseEventLineView(line, &scratch);
    const Result<Event> owned = ParseEventLine(line);
    ASSERT_EQ(viewed.status().ToString(), oracle.status().ToString()) << where;
    ASSERT_EQ(owned.status().ToString(), oracle.status().ToString()) << where;
    if (oracle.ok()) {
      ++accepted;
      ExpectSameFields(viewed->Materialize(), *oracle, where);
      ExpectSameFields(*owned, *oracle, where);
    } else {
      ++rejected;
    }
  }
  // The corpus must exercise both sides of the accept/reject boundary, or
  // the agreement assertions above are vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(EventFuzzTest, RejectionsMatchStrictFileValidation) {
  // Write a file of mutated lines (no embedded '\n' — the file reader
  // would split those into several records) and check that the strict
  // validator reports a parse issue on exactly the lines ParseEventLine
  // rejects with an error other than NotFound.
  Rng rng(kSeed + 1);
  std::vector<std::string> lines;
  while (lines.size() < 2000) {
    std::string line = MutateLine(RandomValidLine(rng), rng);
    if (line.find('\n') != std::string::npos) continue;
    lines.push_back(std::move(line));
  }

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("gt_fuzz_" + std::to_string(::getpid()) + ".stream");
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    for (const std::string& line : lines) out << line << '\n';
  }

  std::set<size_t> expected_bad;  // 1-based line numbers
  for (size_t i = 0; i < lines.size(); ++i) {
    const Result<Event> parsed = ParseEventLine(lines[i]);
    if (!parsed.ok() && !parsed.status().IsNotFound()) {
      expected_bad.insert(i + 1);
    }
  }

  const Result<StreamFileValidationReport> report = ValidateStreamFile(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(report.ok()) << report.status();
  std::set<size_t> reported_bad;
  for (const StreamFileIssue& issue : report->issues) {
    if (issue.parse_error) reported_bad.insert(issue.line);
  }
  EXPECT_EQ(reported_bad, expected_bad);
  EXPECT_FALSE(expected_bad.empty());
}

}  // namespace
}  // namespace graphtides
