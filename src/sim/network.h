// SimLink: a point-to-point network link with latency and bandwidth
// serialization. Messages on one link are delivered in order; transmission
// time is size/bandwidth and transmissions are serialized (a busy link
// delays later sends), modeling the GigE NICs of the paper's testbed
// (Tables 3, 4).
#ifndef GRAPHTIDES_SIM_NETWORK_H_
#define GRAPHTIDES_SIM_NETWORK_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "sim/simulator.h"

namespace graphtides {

struct SimLinkOptions {
  Duration latency = Duration::FromMicros(100);
  /// Bytes per second; 0 = infinite bandwidth.
  uint64_t bandwidth_bps = 125'000'000;  // 1 GigE payload rate
};

/// \brief Unidirectional link. Send() schedules `deliver` at the arrival
/// time and returns that time.
class SimLink {
 public:
  SimLink(Simulator* sim, std::string name, SimLinkOptions options = {})
      : sim_(sim), name_(std::move(name)), options_(options) {}

  Timestamp Send(uint64_t bytes, Simulator::Callback deliver) {
    Timestamp start = sim_->Now();
    if (clear_at_ > start) start = clear_at_;  // serialize transmissions
    Duration tx = Duration::Zero();
    if (options_.bandwidth_bps > 0) {
      // Exact integer nanoseconds (floor) instead of a double round trip.
      tx = Duration::FromSeconds(1.0) * static_cast<int64_t>(bytes) /
           static_cast<int64_t>(options_.bandwidth_bps);
    }
    clear_at_ = start + tx;
    const Timestamp arrival = clear_at_ + options_.latency;
    bytes_sent_ += bytes;
    ++messages_sent_;
    if (deliver) sim_->ScheduleAt(arrival, std::move(deliver));
    return arrival;
  }

  const std::string& name() const { return name_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }
  /// Transmission backlog on the link.
  Duration Backlog() const {
    const Timestamp now = sim_->Now();
    return clear_at_ > now ? clear_at_ - now : Duration::Zero();
  }

 private:
  Simulator* sim_;
  std::string name_;
  SimLinkOptions options_;
  Timestamp clear_at_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_NETWORK_H_
