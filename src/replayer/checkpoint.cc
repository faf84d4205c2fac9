#include "replayer/checkpoint.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/fault_plan.h"
#include "common/string_util.h"

namespace graphtides {

namespace {

constexpr std::string_view kHeader = "# graphtides replay checkpoint";
constexpr std::string_view kCrcKey = "crc32";
// A resume never spans more lanes than this; bounds the sink_bytes vector
// a hostile or corrupt record could ask us to allocate.
constexpr uint64_t kMaxSinkShards = 4096;

std::string FormatDoubleExact(double v) {
  // %.17g round-trips every double, so resume pacing is bit-identical.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ErrnoText(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoText("checkpoint write failure:", path));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// fsyncs the directory containing `path`, so the rename that published a
/// checkpoint is itself durable (a crash cannot resurrect the old name).
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(ErrnoText("cannot open checkpoint directory", dir));
  }
  Status st;
  if (::fsync(fd) != 0) {
    st = Status::IoError(ErrnoText("directory fsync failed:", dir));
  }
  ::close(fd);
  return st;
}

Result<uint32_t> ParseHex32(std::string_view s) {
  uint32_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
  if (ec != std::errc() || ptr != end || s.empty()) {
    return Status::ParseError("bad crc32 value '" + std::string(s) + "'");
  }
  return value;
}

}  // namespace

bool ReplayCheckpoint::operator==(const ReplayCheckpoint& other) const {
  const SinkTelemetry& a = telemetry;
  const SinkTelemetry& b = other.telemetry;
  return version == other.version &&
         entries_consumed == other.entries_consumed &&
         events_delivered == other.events_delivered &&
         local_events == other.local_events &&
         markers == other.markers && controls == other.controls &&
         rate_factor == other.rate_factor && rng_state == other.rng_state &&
         sink_bytes == other.sink_bytes && a.retries == b.retries &&
         a.reconnects == b.reconnects &&
         a.drops_after_retry == b.drops_after_retry &&
         a.giveups == b.giveups && a.backoff_s == b.backoff_s &&
         a.injected_failures == b.injected_failures &&
         a.injected_disconnects == b.injected_disconnects &&
         a.injected_stalls == b.injected_stalls &&
         a.injected_latency_spikes == b.injected_latency_spikes &&
         a.stall_s == b.stall_s;
}

std::string ReplayCheckpoint::ToText() const {
  std::string out(kHeader);
  out += "\nversion=" + std::to_string(version);
  out += "\nentries_consumed=" + std::to_string(entries_consumed);
  out += "\nevents_delivered=" + std::to_string(events_delivered);
  // Emitted only by distributed shard-range writers; older readers skip
  // the unknown key (it still sits under the crc).
  if (local_events != 0) {
    out += "\nlocal_events=" + std::to_string(local_events);
  }
  out += "\nmarkers=" + std::to_string(markers);
  out += "\ncontrols=" + std::to_string(controls);
  out += "\nrate_factor=" + FormatDoubleExact(rate_factor);
  for (size_t i = 0; i < rng_state.size(); ++i) {
    out += "\nrng_state" + std::to_string(i) + "=" +
           std::to_string(rng_state[i]);
  }
  for (size_t i = 0; i < sink_bytes.size(); ++i) {
    out += "\nsink_bytes" + std::to_string(i) + "=" +
           std::to_string(sink_bytes[i]);
  }
  out += "\nretries=" + std::to_string(telemetry.retries);
  out += "\nreconnects=" + std::to_string(telemetry.reconnects);
  out += "\ndrops_after_retry=" + std::to_string(telemetry.drops_after_retry);
  out += "\ngiveups=" + std::to_string(telemetry.giveups);
  out += "\nbackoff_s=" + FormatDoubleExact(telemetry.backoff_s);
  out += "\ninjected_failures=" + std::to_string(telemetry.injected_failures);
  out += "\ninjected_disconnects=" +
         std::to_string(telemetry.injected_disconnects);
  out += "\ninjected_stalls=" + std::to_string(telemetry.injected_stalls);
  out += "\ninjected_latency_spikes=" +
         std::to_string(telemetry.injected_latency_spikes);
  out += "\nstall_s=" + FormatDoubleExact(telemetry.stall_s);
  out += "\n";
  // The footer covers every byte before its own line, so truncation at any
  // offset and any bit flip (including inside the footer) fails.
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(out));
  out += std::string(kCrcKey) + "=" + crc + "\n";
  return out;
}

Result<ReplayCheckpoint> ReplayCheckpoint::FromText(const std::string& text) {
  ReplayCheckpoint cp;
  bool header_seen = false;
  bool crc_seen = false;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    if (pos == text.size()) break;
    const size_t line_start = pos;
    const size_t nl = text.find('\n', pos);
    const size_t line_end = nl == std::string::npos ? text.size() : nl;
    const std::string_view line(text.data() + line_start,
                                line_end - line_start);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    ++line_number;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;
    if (crc_seen) {
      // The footer must be the final record content: trailing data was
      // either appended after publish or spliced from another record.
      return Status::ParseError("checkpoint has content after crc32 footer");
    }
    if (trimmed.front() == '#') {
      if (StartsWith(trimmed, kHeader)) header_seen = true;
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("checkpoint line " +
                                std::to_string(line_number) + ": missing '='");
    }
    const std::string_view key = trimmed.substr(0, eq);
    const std::string_view value = trimmed.substr(eq + 1);
    if (key == kCrcKey) {
      // A published record always ends "crc32=XXXXXXXX\n"; a footer line
      // missing its newline (or with the newline corrupted into other
      // whitespace) is a torn tail even though the checksum still verifies.
      if (nl == std::string::npos || line_end + 1 != text.size() ||
          line.size() != kCrcKey.size() + 1 + 8) {
        return Status::ParseError(
            "checkpoint crc32 footer is damaged (truncated record)");
      }
      // The writer emits canonical lowercase hex; accepting variants would
      // let some footer bit flips alias to the same checksum value.
      for (const char c : value) {
        if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) {
          return Status::ParseError(
              "checkpoint crc32 footer is damaged (non-canonical hex)");
        }
      }
      auto expected = ParseHex32(value);
      GT_RETURN_NOT_OK(expected.status());
      const uint32_t computed =
          Crc32(std::string_view(text.data(), line_start));
      if (computed != *expected) {
        return Status::ParseError("checkpoint checksum mismatch (torn or "
                                  "corrupt record)");
      }
      crc_seen = true;
      continue;
    }
    auto u64 = [&]() { return ParseUint64(value); };
    auto f64 = [&]() { return ParseDouble(value); };
    Status st;
    auto assign_u64 = [&](uint64_t* out) {
      auto parsed = u64();
      if (!parsed.ok()) {
        st = parsed.status();
        return;
      }
      *out = *parsed;
    };
    auto assign_f64 = [&](double* out) {
      auto parsed = f64();
      if (!parsed.ok()) {
        st = parsed.status();
        return;
      }
      *out = *parsed;
    };
    if (key == "version") {
      assign_u64(&cp.version);
    } else if (key == "entries_consumed") {
      assign_u64(&cp.entries_consumed);
    } else if (key == "events_delivered") {
      assign_u64(&cp.events_delivered);
    } else if (key == "local_events") {
      assign_u64(&cp.local_events);
    } else if (key == "markers") {
      assign_u64(&cp.markers);
    } else if (key == "controls") {
      assign_u64(&cp.controls);
    } else if (key == "rate_factor") {
      assign_f64(&cp.rate_factor);
    } else if (StartsWith(key, "rng_state")) {
      auto index = ParseUint64(key.substr(9));
      if (!index.ok() || *index >= cp.rng_state.size()) {
        return Status::ParseError("bad checkpoint key: " + std::string(key));
      }
      assign_u64(&cp.rng_state[*index]);
    } else if (StartsWith(key, "sink_bytes")) {
      auto index = ParseUint64(key.substr(10));
      if (!index.ok() || *index >= kMaxSinkShards) {
        return Status::ParseError("bad checkpoint key: " + std::string(key));
      }
      if (cp.sink_bytes.size() <= *index) cp.sink_bytes.resize(*index + 1, 0);
      assign_u64(&cp.sink_bytes[*index]);
    } else if (key == "retries") {
      assign_u64(&cp.telemetry.retries);
    } else if (key == "reconnects") {
      assign_u64(&cp.telemetry.reconnects);
    } else if (key == "drops_after_retry") {
      assign_u64(&cp.telemetry.drops_after_retry);
    } else if (key == "giveups") {
      assign_u64(&cp.telemetry.giveups);
    } else if (key == "backoff_s") {
      assign_f64(&cp.telemetry.backoff_s);
    } else if (key == "injected_failures") {
      assign_u64(&cp.telemetry.injected_failures);
    } else if (key == "injected_disconnects") {
      assign_u64(&cp.telemetry.injected_disconnects);
    } else if (key == "injected_stalls") {
      assign_u64(&cp.telemetry.injected_stalls);
    } else if (key == "injected_latency_spikes") {
      assign_u64(&cp.telemetry.injected_latency_spikes);
    } else if (key == "stall_s") {
      assign_f64(&cp.telemetry.stall_s);
    } else {
      // Unknown keys from newer writers are skipped (forward compatible;
      // they sit under the crc, so integrity still holds).
      continue;
    }
    if (!st.ok()) {
      return st.WithContext("checkpoint key " + std::string(key));
    }
  }
  if (!header_seen) {
    return Status::ParseError("not a replay checkpoint (missing header)");
  }
  if (cp.version != 2) {
    return Status::ParseError("unsupported checkpoint version " +
                              std::to_string(cp.version));
  }
  if (!crc_seen) {
    return Status::ParseError(
        "checkpoint missing crc32 footer (truncated record)");
  }
  if (cp.events_delivered + cp.markers + cp.controls > cp.entries_consumed) {
    return Status::ParseError("checkpoint counts exceed entries_consumed");
  }
  if (cp.local_events > cp.events_delivered) {
    return Status::ParseError(
        "checkpoint local_events exceeds events_delivered");
  }
  return cp;
}

Status ReplayCheckpoint::SaveTo(const std::string& path) const {
  FaultPlan& plan = FaultPlan::Global();
  const std::string text = ToText();
  const std::string tmp = path + ".tmp";

  // Scripted torn publish: keep only a seeded prefix of the record, then
  // die after the rename — the on-disk state a power loss mid-publish
  // leaves behind, which LoadLatestGood must reject and fall back past.
  double keep_fraction = 1.0;
  std::string_view torn_point;
  if (plan.TornCheckpointAt(kCrashPreCheckpointRename, &keep_fraction)) {
    torn_point = kCrashPreCheckpointRename;
  } else if (plan.TornCheckpointAt(kCrashPostCheckpoint, &keep_fraction)) {
    torn_point = kCrashPostCheckpoint;
  }
  const size_t write_len =
      torn_point.empty()
          ? text.size()
          : std::max<size_t>(
                1, static_cast<size_t>(keep_fraction *
                                       static_cast<double>(text.size())));

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoText("cannot create checkpoint file:", tmp));
  }
  const std::string_view payload(text.data(), write_len);
  // The mid-write crash point sits between the two halves of the record:
  // the temp file holds a prefix, the published generation is untouched.
  const size_t half = payload.size() / 2;
  Status st = WriteAll(fd, payload.substr(0, half), tmp);
  if (st.ok()) {
    plan.Hit(kCrashMidCheckpointWrite);
    st = WriteAll(fd, payload.substr(half), tmp);
  }
  // fsync before rename is the durability half of "atomic replace": an
  // un-synced rename can publish a name whose content never reached disk.
  // The error is latched into the returned status, never ignored.
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IoError(ErrnoText("checkpoint fsync failed:", tmp));
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IoError(ErrnoText("checkpoint close failed:", tmp));
  }
  if (!st.ok()) return st;

  plan.Hit(kCrashPreCheckpointRename);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError(ErrnoText("cannot publish checkpoint:", path));
  }
  GT_RETURN_NOT_OK(SyncParentDir(path));
  if (!torn_point.empty()) plan.CrashNow(torn_point);
  plan.Hit(kCrashPostCheckpoint);
  return Status::OK();
}

Result<ReplayCheckpoint> ReplayCheckpoint::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open checkpoint file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("checkpoint read failure: " + path);
  Result<ReplayCheckpoint> parsed = FromText(buffer.str());
  if (!parsed.ok()) return parsed.status().WithContext(path);
  return parsed;
}

std::string CheckpointStore::GenerationPath(const std::string& path,
                                            size_t g) {
  return g == 0 ? path : path + "." + std::to_string(g);
}

Status CheckpointStore::Save(const ReplayCheckpoint& cp) const {
  const size_t generations = std::max<size_t>(1, options_.generations);
  // Rotate oldest-first so each rename has a free target. A crash inside
  // the rotation leaves the newest record at `path` or `path.1` — both
  // within LoadLatestGood's scan.
  for (size_t g = generations - 1; g >= 1; --g) {
    const std::string from = GenerationPath(options_.path, g - 1);
    const std::string to = GenerationPath(options_.path, g);
    if (std::rename(from.c_str(), to.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError(
          ErrnoText("cannot rotate checkpoint generation:", from));
    }
  }
  return cp.SaveTo(options_.path);
}

Result<CheckpointStore::Loaded> CheckpointStore::LoadLatestGood(
    const std::string& path, size_t max_generations) {
  Loaded loaded;
  bool any_file = false;
  Status last_error;
  for (size_t g = 0; g < std::max<size_t>(1, max_generations); ++g) {
    const std::string gen_path = GenerationPath(path, g);
    if (::access(gen_path.c_str(), F_OK) != 0) continue;
    any_file = true;
    auto cp = ReplayCheckpoint::LoadFrom(gen_path);
    if (cp.ok()) {
      loaded.checkpoint = *cp;
      loaded.generation = g;
      loaded.fallbacks = g;
      return loaded;
    }
    loaded.rejected.push_back(cp.status().ToString());
    last_error = cp.status();
  }
  if (!any_file) {
    return Status::NotFound("no checkpoint generation at " + path);
  }
  return last_error.WithContext("no good checkpoint generation (tried " +
                                std::to_string(loaded.rejected.size()) +
                                ")");
}

}  // namespace graphtides
