#include "sim/process.h"

#include <algorithm>

namespace graphtides {

SimProcess::SimProcess(Simulator* sim, std::string name,
                       Duration utilization_bin)
    : sim_(sim),
      name_(std::move(name)),
      bin_(utilization_bin),
      epoch_(sim->Now()),
      busy_until_(sim->Now()) {}

Timestamp SimProcess::Submit(Duration cpu_cost, Simulator::Callback done) {
  if (!alive_) {
    ++lost_submissions_;
    return sim_->Now();
  }
  const Timestamp start = std::max(sim_->Now(), busy_until_);
  const Timestamp end = start + cpu_cost;
  AccountBusy(start, end);
  busy_until_ = end;
  total_busy_ += cpu_cost;
  if (done) {
    // Drop the consumed prefix once it is at least half the FIFO, so a
    // process that never drains keeps amortized O(1) submissions.
    if (next_completion_ > 0 && 2 * next_completion_ >= completions_.size()) {
      completions_.erase(completions_.begin(),
                         completions_.begin() +
                             static_cast<std::ptrdiff_t>(next_completion_));
      next_completion_ = 0;
    }
    completions_.push_back(std::move(done));
    sim_->ScheduleAt(end, [this, gen = generation_] { Complete(gen); });
  }
  return end;
}

void SimProcess::Complete(uint64_t generation) {
  if (generation != generation_) return;
  // Move out first: `done` may submit more work or kill the process.
  Simulator::Callback done = std::move(completions_[next_completion_++]);
  done();
}

void SimProcess::Kill() {
  if (!alive_) return;
  const Timestamp now = sim_->Now();
  // Roll back the CPU time charged for work that will now never run.
  if (busy_until_ > now) {
    UnaccountBusy(now, busy_until_);
    total_busy_ -= busy_until_ - now;
    busy_until_ = now;
  }
  ++generation_;  // suppress in-flight completion callbacks
  completions_.clear();
  next_completion_ = 0;
  alive_ = false;
  killed_at_ = now;
  ++kills_;
}

void SimProcess::Recover() {
  if (alive_) return;
  const Timestamp now = sim_->Now();
  downtime_ += now - killed_at_;
  busy_until_ = now;
  alive_ = true;
}

Duration SimProcess::Backlog() const {
  const Timestamp now = sim_->Now();
  return busy_until_ > now ? busy_until_ - now : Duration::Zero();
}

void SimProcess::AccountBusy(Timestamp start, Timestamp end) {
  if (end <= start) return;
  int64_t begin_ns = (start - epoch_).nanos();
  const int64_t end_ns = (end - epoch_).nanos();
  const int64_t bin_ns = bin_.nanos();
  while (begin_ns < end_ns) {
    const size_t bin_index = static_cast<size_t>(begin_ns / bin_ns);
    if (busy_per_bin_.size() <= bin_index) {
      busy_per_bin_.resize(bin_index + 1, Duration::Zero());
    }
    const int64_t bin_end = static_cast<int64_t>(bin_index + 1) * bin_ns;
    const int64_t chunk = std::min(end_ns, bin_end) - begin_ns;
    busy_per_bin_[bin_index] += Duration::FromNanos(chunk);
    begin_ns += chunk;
  }
}

void SimProcess::UnaccountBusy(Timestamp start, Timestamp end) {
  if (end <= start) return;
  int64_t begin_ns = (start - epoch_).nanos();
  const int64_t end_ns = (end - epoch_).nanos();
  const int64_t bin_ns = bin_.nanos();
  while (begin_ns < end_ns) {
    const size_t bin_index = static_cast<size_t>(begin_ns / bin_ns);
    const int64_t bin_end = static_cast<int64_t>(bin_index + 1) * bin_ns;
    const int64_t chunk = std::min(end_ns, bin_end) - begin_ns;
    if (bin_index < busy_per_bin_.size()) {
      busy_per_bin_[bin_index] -= Duration::FromNanos(
          std::min(chunk, busy_per_bin_[bin_index].nanos()));
    }
    begin_ns += chunk;
  }
}

std::vector<double> SimProcess::UtilizationSeries(Timestamp until) const {
  std::vector<double> out;
  if (until <= epoch_) return out;
  const size_t bins = static_cast<size_t>(
      ((until - epoch_).nanos() + bin_.nanos() - 1) / bin_.nanos());
  out.resize(bins, 0.0);
  for (size_t i = 0; i < bins && i < busy_per_bin_.size(); ++i) {
    out[i] = static_cast<double>(busy_per_bin_[i].nanos()) /
             static_cast<double>(bin_.nanos());
    out[i] = std::min(out[i], 1.0);
  }
  return out;
}

}  // namespace graphtides
