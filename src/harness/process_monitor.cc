#include "harness/process_monitor.h"

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/string_util.h"

namespace graphtides {

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

}  // namespace

ProcessMonitor::ProcessMonitor(pid_t pid)
    : pid_(pid), ticks_per_second_(::sysconf(_SC_CLK_TCK)) {
  if (ticks_per_second_ <= 0) ticks_per_second_ = 100;
}

ProcessMonitor ProcessMonitor::Self() { return ProcessMonitor(::getpid()); }

Result<ProcessSample> ProcessMonitor::Sample() {
  const std::string base = "/proc/" + std::to_string(pid_);
  GT_ASSIGN_OR_RETURN(const std::string stat, ReadWholeFile(base + "/stat"));

  // /proc/<pid>/stat: pid (comm) state ppid ... the comm field may contain
  // spaces and parentheses; fields after the *last* ')' are well-formed.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return Status::ParseError("malformed " + base + "/stat");
  }
  const auto fields = SplitString(TrimWhitespace(
      std::string_view(stat).substr(close + 1)), ' ');
  // After ')': field[0] = state (3rd overall). utime is overall field 14,
  // stime 15, num_threads 20, rss 24 -> offsets 11, 12, 17, 21 here.
  if (fields.size() < 22) {
    return Status::ParseError("short " + base + "/stat");
  }
  GT_ASSIGN_OR_RETURN(const uint64_t utime, ParseUint64(fields[11]));
  GT_ASSIGN_OR_RETURN(const uint64_t stime, ParseUint64(fields[12]));
  GT_ASSIGN_OR_RETURN(const uint64_t threads, ParseUint64(fields[17]));
  GT_ASSIGN_OR_RETURN(const uint64_t rss_pages, ParseUint64(fields[21]));

  ProcessSample sample;
  sample.time = clock_.Now();
  sample.cpu_ticks = utime + stime;
  sample.num_threads = threads;
  sample.rss_bytes =
      rss_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));

  if (has_baseline_) {
    const double elapsed = (sample.time - last_time_).seconds();
    if (elapsed > 0) {
      const double tick_delta =
          static_cast<double>(sample.cpu_ticks - last_ticks_);
      sample.cpu_percent = 100.0 * tick_delta /
                           static_cast<double>(ticks_per_second_) / elapsed;
    }
  }
  has_baseline_ = true;
  last_ticks_ = sample.cpu_ticks;
  last_time_ = sample.time;
  return sample;
}

PeriodicProcessLogger::PeriodicProcessLogger(pid_t pid, MetricsLogger* logger,
                                             Duration interval)
    : monitor_(pid), logger_(logger) {
  thread_ = std::thread([this, interval] { Run(interval); });
}

PeriodicProcessLogger::~PeriodicProcessLogger() { Stop(); }

void PeriodicProcessLogger::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void PeriodicProcessLogger::Run(Duration interval) {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto sample = monitor_.Sample();
    if (sample.ok()) {
      logger_->Log("cpu", sample->cpu_percent);
      logger_->Log("rss", static_cast<double>(sample->rss_bytes));
    }
    // Sleep in small slices so Stop() is responsive.
    const int64_t slices = std::max<int64_t>(1, interval.millis() / 10);
    const auto slice = std::chrono::milliseconds(
        std::max<int64_t>(1, interval.millis() / slices));
    for (int64_t i = 0; i < slices; ++i) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(slice);
    }
  }
}

}  // namespace graphtides
