#include "sim/simulator.h"

#include <utility>

namespace graphtides {

void Simulator::ScheduleAt(Timestamp t, Callback cb) {
  if (t < Now()) t = Now();
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  queue_.push(Key{t, next_seq_++, slot});
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  const Key key = queue_.top();
  queue_.pop();
  // Move the callback out before running it: it may schedule events that
  // grow slots_ or reuse this slot.
  Callback cb = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  clock_.AdvanceTo(key.time);
  ++executed_;
  cb();
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
    if (Now() + every <= deadline) {
      ScheduleAfter(every, [&sample] { sample(); });
    }
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
