#include "sim/virtual_replayer.h"

namespace graphtides {
namespace {

/// Schedule deferral before re-checking a closed backpressure gate.
constexpr Duration kGateBackoff = Duration::FromMillis(1);

}  // namespace

void VirtualReplayer::Start(std::vector<Event> events, DeliverFn deliver,
                            MarkerFn on_marker, DoneFn on_done) {
  events_ = std::move(events);
  deliver_ = std::move(deliver);
  on_marker_ = std::move(on_marker);
  on_done_ = std::move(on_done);
  ScheduleNext();
}

void VirtualReplayer::ScheduleNext() {
  // Markers and controls carry no pacing cost of their own; like a lane at
  // its barrier, consume them right after the graph event before them.
  for (; cursor_ < events_.size() && !IsGraphOp(events_[cursor_].type);
       ++cursor_) {
    const Event& event = events_[cursor_];
    if (event.type == EventType::kMarker) {
      pending_markers_.push_back(
          {event.payload, delivery_times_.size(), sim_->Now()});
      if (on_marker_) on_marker_(event.payload);
    } else {
      rate_.ApplyControl(event.type, event.rate_factor, event.pause);
    }
  }
  if (cursor_ >= events_.size()) {
    finished_ = true;
    finished_at_ = sim_->Now();
    if (on_done_) on_done_();
    return;
  }
  sim_->ScheduleAt(rate_.NextDeadline(), [this] { Emit(); });
}

void VirtualReplayer::Emit() {
  // Backpressure: a closed gate defers the schedule, so a throttled
  // replayer does not burst to catch up once the gate opens.
  if (gate_ && !gate_()) {
    throttled_ += kGateBackoff;
    rate_.Defer(kGateBackoff);
    sim_->ScheduleAfter(kGateBackoff, [this] { Emit(); });
    return;
  }
  delivery_times_.push_back(sim_->Now());
  if (deliver_) deliver_(events_[cursor_], cursor_);
  ++cursor_;
  ScheduleNext();
}

void VirtualReplayer::ObserveApplied(uint64_t applied) {
  while (!pending_markers_.empty() &&
         pending_markers_.front().events_before <= applied) {
    PendingMarker& marker = pending_markers_.front();
    visible_markers_.push_back({std::move(marker.label), marker.sent,
                                sim_->Now() - marker.sent});
    pending_markers_.pop_front();
  }
}

std::vector<Timestamp> VirtualReplayer::PendingMarkerSends() const {
  std::vector<Timestamp> sends;
  sends.reserve(pending_markers_.size());
  for (const PendingMarker& marker : pending_markers_) {
    sends.push_back(marker.sent);
  }
  return sends;
}

}  // namespace graphtides
