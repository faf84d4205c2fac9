// Deterministic-shuffle fuzzing of the stream-format parsers: valid lines
// are mutilated by a seeded RNG (truncation, field swaps, embedded NUL/CR,
// overlong payloads, byte noise) and fed to both ParseEventLine and the
// zero-copy ParseEventLineView. Neither may crash, both must agree on
// accept/reject and on the parsed value, and the strict file validator must
// flag exactly the lines the parser rejects.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "stream/event.h"
#include "stream/event_view.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

constexpr uint64_t kSeed = 0x667a7a5f31ULL;  // stable across runs

Event RandomValidEvent(Rng& rng) {
  const VertexId a = rng.NextBounded(1000);
  const VertexId b = rng.NextBounded(1000);
  switch (rng.NextBounded(9)) {
    case 0:
      return Event::AddVertex(a, "state-" + std::to_string(b));
    case 1:
      return Event::RemoveVertex(a);
    case 2:
      return Event::UpdateVertex(a, "u,pd\"ate");  // forces quoting
    case 3:
      return Event::AddEdge(a, b, "w=1");
    case 4:
      return Event::RemoveEdge(a, b);
    case 5:
      return Event::UpdateEdge(a, b, "w=2");
    case 6:
      return Event::Marker(std::string("m").append(std::to_string(a)));
    case 7:
      return Event::SetRate(1.5);
    default:
      return Event::Pause(Duration::FromMillis(5));
  }
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

TEST(EventFuzzTest, ParsersNeverCrashAndAlwaysAgree) {
  Rng rng(kSeed);
  std::string scratch;
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = MutateLine(FormatEventLine(RandomValidEvent(rng)), rng);
    const Result<Event> owned = ParseEventLine(line);
    const Result<EventView> viewed = ParseEventLineView(line, &scratch);
    ASSERT_EQ(owned.ok(), viewed.ok())
        << "iteration " << i << "\nline: " << line
        << "\nowned:  " << owned.status().ToString()
        << "\nviewed: " << viewed.status().ToString();
    if (owned.ok()) {
      ++accepted;
      EXPECT_EQ(viewed->Materialize(), *owned) << "iteration " << i
                                               << "\nline: " << line;
    } else {
      ++rejected;
      EXPECT_EQ(owned.status().code(), viewed.status().code())
          << "iteration " << i << "\nline: " << line
          << "\nowned:  " << owned.status().ToString()
          << "\nviewed: " << viewed.status().ToString();
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
    std::string line = MutateLine(FormatEventLine(RandomValidEvent(rng)), rng);
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
