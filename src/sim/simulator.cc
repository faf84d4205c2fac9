#include "sim/simulator.h"

#include <utility>

namespace graphtides {

void Simulator::ScheduleAt(Timestamp t, Callback cb) {
  if (t < Now()) t = Now();
  queue_.push(Entry{t, next_seq_++, std::move(cb)});
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the callback must be moved out
  // before pop, so copy the shell and pop first.
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  clock_.AdvanceTo(entry.time);
  ++executed_;
  entry.cb();
  return true;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Timestamp t) {
  while (!queue_.empty() && queue_.top().time <= t) {
    Step();
  }
  clock_.AdvanceTo(t);
}

std::optional<Timestamp> Simulator::RunSampled(
    Duration every, Timestamp deadline, const std::function<bool()>& tick) {
  std::optional<Timestamp> drained_at;
  std::function<void()> sample;
  // A tick past the deadline would never run; not scheduling it keeps the
  // queue free of callbacks that outlive this frame.
  auto schedule = [&] {
    if (Now() + every <= deadline) ScheduleAfter(every, sample);
  };
  sample = [&] {
    if (tick()) {
      drained_at = Now();
    } else {
      schedule();
    }
  };
  schedule();
  RunUntil(deadline);
  return drained_at;
}

}  // namespace graphtides
