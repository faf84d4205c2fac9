// Framed control-plane transport: one TCP connection carrying protocol.h
// frames, with deadline-bounded receives and a cross-thread shutdown so a
// watchdog can always unwedge a blocked peer wait.
#ifndef GRAPHTIDES_DISTRIBUTED_CONTROL_CHANNEL_H_
#define GRAPHTIDES_DISTRIBUTED_CONTROL_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "distributed/protocol.h"

namespace graphtides {

/// \brief One framed control connection (either end).
///
/// Send is mutex-serialized so any thread may push a frame; Receive must
/// stay on a single reader thread (the decoder is stateful). Shutdown() is
/// safe from any thread and makes both a blocked Send and a blocked
/// Receive return immediately — the shutdown-not-close discipline from
/// TcpSink::Abort, so a recycled fd can never be shut down by mistake.
class ControlChannel {
 public:
  /// Dials a coordinator with a connect deadline (see DialTcp).
  static Result<std::unique_ptr<ControlChannel>> Dial(const std::string& host,
                                                      uint16_t port,
                                                      int connect_timeout_ms);
  /// Adopts an already-connected fd (the accept side).
  static std::unique_ptr<ControlChannel> Adopt(int fd);

  ~ControlChannel();
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// \brief Encodes and writes one frame. IoError once the peer is gone;
  /// a 10 s deadline (kSendTimeoutMs) bounds a peer that stopped reading.
  Status Send(const Frame& frame);

  /// \brief Waits up to `timeout_ms` for the next complete frame
  /// (0 = block indefinitely). Timeout on deadline, ParseError on a
  /// corrupt stream (poisons the channel), Unavailable when the peer
  /// closed cleanly between frames.
  Result<Frame> Receive(int timeout_ms);

  /// Thread-safe: unblocks any Send/Receive in flight with an error.
  void Shutdown();

 private:
  explicit ControlChannel(int fd) : fd_(fd) {}

  /// A control frame that cannot be written for 10 s means the peer is
  /// effectively dead: every Send polls with this deadline.
  static constexpr int kSendTimeoutMs = 10000;

  int fd_ = -1;
  std::mutex send_mu_;
  FrameDecoder decoder_;
  std::atomic<bool> shutdown_{false};
};

/// \brief Accept side of the control plane: binds, listens, and hands out
/// ControlChannels. Accept is deadline-bounded so the coordinator's accept
/// loop can interleave heartbeat checks.
class ControlListener {
 public:
  ControlListener() = default;
  ~ControlListener();
  ControlListener(const ControlListener&) = delete;
  ControlListener& operator=(const ControlListener&) = delete;

  /// Binds `host` (e.g. "127.0.0.1", "0.0.0.0") on `port` (0 = ephemeral)
  /// and listens. Returns the bound port.
  Result<uint16_t> Listen(const std::string& host, uint16_t port);

  /// Waits up to `timeout_ms` for one connection (0 = block). Timeout on
  /// deadline; Unavailable after Close().
  Result<std::unique_ptr<ControlChannel>> Accept(int timeout_ms);

  /// Thread-safe: wakes a blocked Accept and fails all later ones.
  void Close();

  uint16_t port() const { return port_; }

 private:
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_DISTRIBUTED_CONTROL_CHANNEL_H_
