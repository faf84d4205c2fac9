#include "common/fault_plan.h"

#include <csignal>
#include <cstdlib>

#include <unistd.h>

#include "common/random.h"
#include "common/string_util.h"

namespace graphtides {

namespace {

// Stable per-point salt for the torn-write fraction draw.
uint64_t PointSalt(std::string_view point) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : point) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

FaultPlan& FaultPlan::Global() {
  static FaultPlan plan;
  return plan;
}

const std::vector<std::string_view>& FaultPlan::KnownCrashPoints() {
  static const std::vector<std::string_view> kPoints = {
      kCrashPostDelivery,     kCrashMidCheckpointWrite,
      kCrashPreCheckpointRename, kCrashPostCheckpoint,
      kCrashEpochBarrier,     kCrashCoordPostAssign,
      kCrashCoordEpochRelease, kCrashWorkerPostHello,
      kCrashWorkerEpochReport};
  return kPoints;
}

Status FaultPlan::Configure(std::string_view spec) {
  if (TrimWhitespace(spec).empty()) return Status::OK();
  for (const std::string_view raw : SplitString(spec, ',')) {
    const std::string_view entry = TrimWhitespace(raw);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("fault-plan entry '" + std::string(entry) +
                                     "': expected key=value");
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (key == "crash" || key == "torn") {
      CrashEntry crash;
      crash.torn = key == "torn";
      std::string_view point = value;
      const size_t colon = value.find(':');
      if (colon != std::string_view::npos) {
        point = value.substr(0, colon);
        auto n = ParseUint64(value.substr(colon + 1));
        if (!n.ok() || *n == 0) {
          return Status::InvalidArgument(
              "fault-plan '" + std::string(entry) +
              "': hit count must be a positive integer");
        }
        crash.at_hit = *n;
      }
      bool known = false;
      for (const std::string_view p : KnownCrashPoints()) {
        if (point == p) known = true;
      }
      // Torn writes only make sense at checkpoint-publish boundaries.
      if (crash.torn && point != kCrashPreCheckpointRename &&
          point != kCrashPostCheckpoint) {
        return Status::InvalidArgument(
            "fault-plan '" + std::string(entry) +
            "': torn= applies to pre-checkpoint-rename or post-checkpoint");
      }
      if (!known) {
        std::string names;
        for (const std::string_view p : KnownCrashPoints()) {
          if (!names.empty()) names += ", ";
          names += std::string(p);
        }
        return Status::InvalidArgument("unknown crash point '" +
                                       std::string(point) + "' (known: " +
                                       names + ")");
      }
      crash.point = std::string(point);
      crashes_.push_back(crash);
    } else if (key == "enospc") {
      auto bytes = ParseUint64(value);
      if (!bytes.ok()) {
        return bytes.status().WithContext("fault-plan enospc budget");
      }
      enospc_budget_.store(static_cast<int64_t>(*bytes),
                           std::memory_order_relaxed);
    } else if (key == "short-write") {
      auto nth = ParseUint64(value);
      if (!nth.ok() || *nth == 0) {
        return Status::InvalidArgument(
            "fault-plan short-write: expected a positive write ordinal");
      }
      short_write_at_.store(*nth, std::memory_order_relaxed);
    } else if (key == "fail") {
      auto attempt = ParseUint64(value);
      if (!attempt.ok()) {
        return attempt.status().WithContext("fault-plan fail point");
      }
      fail_points_.push_back(*attempt);
    } else if (key == "seed") {
      auto seed = ParseUint64(value);
      if (!seed.ok()) return seed.status().WithContext("fault-plan seed");
      seed_ = *seed;
    } else {
      return Status::InvalidArgument("unknown fault-plan key '" +
                                     std::string(key) + "'");
    }
  }
  armed_.store(true, std::memory_order_release);
  return Status::OK();
}

Status FaultPlan::ConfigureCrashAt(std::string_view list) {
  for (const std::string_view part : SplitString(list, ',')) {
    const std::string_view point = TrimWhitespace(part);
    if (point.empty()) continue;
    GT_RETURN_NOT_OK(Configure("crash=" + std::string(point)));
  }
  return Status::OK();
}

Status FaultPlan::ConfigureFromEnv() {
  if (const char* plan = std::getenv("GT_FAULT_PLAN")) {
    GT_RETURN_NOT_OK(Configure(plan).WithContext("GT_FAULT_PLAN"));
  }
  if (const char* crash_at = std::getenv("GT_CRASH_AT")) {
    GT_RETURN_NOT_OK(ConfigureCrashAt(crash_at).WithContext("GT_CRASH_AT"));
  }
  return Status::OK();
}

Status FaultPlan::ConfigureFromFlags(std::string_view fault_plan,
                                     std::string_view crash_at) {
  GT_RETURN_NOT_OK(ConfigureFromEnv());
  GT_RETURN_NOT_OK(Configure(fault_plan));
  return ConfigureCrashAt(crash_at);
}

void FaultPlan::Reset() {
  armed_.store(false, std::memory_order_release);
  crashes_.clear();
  fail_points_.clear();
  seed_ = 1;
  enospc_budget_.store(-1, std::memory_order_relaxed);
  short_write_at_.store(0, std::memory_order_relaxed);
  writes_seen_.store(0, std::memory_order_relaxed);
  write_fault_latched_.store(false, std::memory_order_relaxed);
  hits_observed_.store(0, std::memory_order_relaxed);
  write_faults_.store(0, std::memory_order_relaxed);
  crash_ = nullptr;
}

void FaultPlan::CrashNow(std::string_view point) {
  if (crash_) {
    crash_(point);
    return;
  }
  // Abrupt death, deliberately without flushing stdio: a real crash loses
  // buffered sink output, and that loss is exactly what resume-truncation
  // must cope with. The note goes straight to fd 2 for post-mortems.
  std::string note = "fault-plan: crash at ";
  note.append(point);
  note.push_back('\n');
  (void)!::write(STDERR_FILENO, note.data(), note.size());
  ::raise(SIGKILL);
}

void FaultPlan::HitSlow(std::string_view point) {
  for (CrashEntry& crash : crashes_) {
    if (crash.torn || crash.point != point) continue;
    hits_observed_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t n = crash.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == crash.at_hit && !crash.fired.exchange(true)) {
      CrashNow(point);
    }
  }
}

bool FaultPlan::TornCheckpointAt(std::string_view point,
                                 double* keep_fraction) {
  if (!armed_.load(std::memory_order_relaxed)) return false;
  for (CrashEntry& crash : crashes_) {
    if (!crash.torn || crash.point != point) continue;
    hits_observed_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t n = crash.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == crash.at_hit && !crash.fired.exchange(true)) {
      // Seeded fraction in (0, 1): always a proper prefix, so the CRC
      // footer can never survive the tear.
      Rng rng(seed_ ^ PointSalt(point) ^ crash.at_hit);
      *keep_fraction = 0.05 + 0.9 * rng.NextDouble();
      return true;
    }
  }
  return false;
}

bool FaultPlan::ClipFileWrite(size_t want, size_t* allowed,
                              std::string* error) {
  if (!armed_.load(std::memory_order_relaxed)) return false;
  if (write_fault_latched_.load(std::memory_order_relaxed)) {
    *allowed = 0;
    *error = "injected write fault (latched)";
    return true;
  }
  const uint64_t nth = writes_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t short_at = short_write_at_.load(std::memory_order_relaxed);
  if (short_at != 0 && nth == short_at) {
    write_fault_latched_.store(true, std::memory_order_relaxed);
    write_faults_.fetch_add(1, std::memory_order_relaxed);
    *allowed = want / 2;
    *error = "short write (injected): " + std::to_string(want / 2) + " of " +
             std::to_string(want) + " bytes";
    return true;
  }
  const int64_t budget = enospc_budget_.load(std::memory_order_relaxed);
  if (budget >= 0) {
    const int64_t before = enospc_budget_.fetch_sub(
        static_cast<int64_t>(want), std::memory_order_relaxed);
    if (before < static_cast<int64_t>(want)) {
      write_fault_latched_.store(true, std::memory_order_relaxed);
      write_faults_.fetch_add(1, std::memory_order_relaxed);
      *allowed = static_cast<size_t>(before > 0 ? before : 0);
      *error = "No space left on device (injected ENOSPC)";
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> FaultPlan::delivery_fail_points() const {
  return fail_points_;
}

}  // namespace graphtides
