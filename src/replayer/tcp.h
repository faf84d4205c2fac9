// TCP transport: a client sink (connector side) and a minimal line-oriented
// server (system-under-test side / benchmark counterpart). Matches the
// Table 2 "TCP: local socket to measurement process" setup.
#ifndef GRAPHTIDES_REPLAYER_TCP_H_
#define GRAPHTIDES_REPLAYER_TCP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "replayer/event_sink.h"

namespace graphtides {

/// \brief Dials host:port (IPv4 dotted quad or "localhost") and returns a
/// connected fd with TCP_NODELAY set.
///
/// With `connect_timeout_ms > 0` the connect is non-blocking + poll, so a
/// black-holed peer surfaces as a Timeout after the deadline instead of
/// blocking for the kernel's multi-minute SYN retry budget; the fd is
/// restored to blocking mode before it is returned. `connect_timeout_ms <=
/// 0` keeps the historic blocking connect.
Result<int> DialTcp(const std::string& host, uint16_t port,
                    int connect_timeout_ms);

/// \brief A listening TCP socket and the port it is bound to.
struct TcpListenSocket {
  int fd = -1;
  uint16_t port = 0;
};

/// \brief Binds host:port (IPv4 dotted quad or "localhost"; port 0 asks the
/// OS for an ephemeral port) with SO_REUSEADDR and listens with `backlog`.
/// The fd is closed on every error.
Result<TcpListenSocket> ListenTcp(const std::string& host, uint16_t port,
                                  int backlog);

/// IoError "`what`: strerror(errno)" for the socket call that just failed.
Status ErrnoStatus(const std::string& what);

/// \brief EventSink that writes CSV event lines over a TCP connection.
///
/// Writes go through a small user-space buffer and the kernel socket
/// buffer; when the receiver falls behind, writes block — TCP flow control
/// is the backpressure signal.
///
/// Failure semantics: sends use MSG_NOSIGNAL, so a peer that resets the
/// connection mid-replay surfaces as an IoError Status instead of a
/// process-killing SIGPIPE. Unflushed buffered lines survive a failure and
/// a Reconnect(), giving at-least-once delivery when a ResilientSink
/// drives the retry loop.
class TcpSink final : public EventSink {
 public:
  TcpSink() = default;
  ~TcpSink() override;

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  /// \brief Dial deadline per connect attempt, milliseconds (0 = block
  /// indefinitely, the historic default). Call before Connect; applies to
  /// Reconnect too.
  void set_connect_timeout_ms(int ms) { connect_timeout_ms_ = ms; }
  /// Connect attempts per Connect/Reconnect call (default 1). Failed
  /// attempts back off linearly (50 ms * attempt, capped at 1 s) — bounded,
  /// never an indefinite dial loop.
  void set_connect_attempts(int attempts) {
    connect_attempts_ = attempts < 1 ? 1 : attempts;
  }

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  Status Connect(const std::string& host, uint16_t port);

  /// \brief Re-dials the address of the last successful Connect.
  ///
  /// Closes any half-dead socket first; the user-space buffer is kept, so
  /// lines accepted but not yet flushed are re-sent on the new connection.
  /// PreconditionFailed if Connect never succeeded.
  Status Reconnect();

  /// \brief Severs the connection immediately (no flush, fd closed).
  ///
  /// Used as the chaos "forced disconnect" hook: after Sever, Deliver
  /// fails until Reconnect() re-establishes the connection. Must be called
  /// from the thread that owns the sink.
  void Sever();

  /// \brief Thread-safe abort: shuts the socket down WITHOUT closing it.
  ///
  /// Safe to call from a watchdog/supervisor thread while the owning
  /// thread is blocked in send() — the blocked call returns with an error
  /// immediately. The fd itself is only ever closed by the owning thread
  /// (Sever/Finish/destructor); closing here would race fd reuse.
  void Abort();

  /// Opt-in to v2 wire delivery: a later NegotiateWireFormat(kV2) is
  /// answered with kV2 (without this call the answer stays kCsv). Call
  /// before the replayer starts.
  void EnableV2Wire() { allow_v2_ = true; }

  Status Deliver(const Event& event) override;
  /// Appends the pre-serialized batch to the user-space buffer in one go;
  /// flushed on the same 16 KiB threshold as per-event delivery.
  bool SupportsSerialized() const override { return true; }
  Status DeliverSerialized(std::string_view lines, size_t count) override;
  Result<WireFormat> NegotiateWireFormat(WireFormat preferred) override;
  Status Finish() override;
  /// Drains the user-space buffer into the socket (checkpoint boundary).
  Status Flush() override { return FlushBuffer(); }
  uint64_t bytes_delivered() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

  bool connected() const {
    return fd_.load(std::memory_order_acquire) >= 0;
  }
  uint64_t reconnects() const { return reconnects_; }

 private:
  Status Dial();
  Status FlushBuffer();

  /// Owned (open/close) by the sink's thread; atomic so Abort can observe
  /// it from another thread.
  std::atomic<int> fd_{-1};
  std::string host_;
  uint16_t port_ = 0;
  int connect_timeout_ms_ = 0;
  int connect_attempts_ = 1;
  bool ever_connected_ = false;
  uint64_t reconnects_ = 0;
  std::string buffer_;
  bool allow_v2_ = false;
  WireFormat wire_ = WireFormat::kCsv;
  bool sentinel_written_ = false;
  V2BlockEncoder v2_encoder_;  // per-event fallback when wire_ is kV2
  /// Payload bytes pushed into the socket (counted at flush).
  std::atomic<uint64_t> bytes_{0};
  /// Flush threshold; one syscall per ~16 KiB rather than per event.
  static constexpr size_t kFlushBytes = 16 * 1024;
};

/// \brief Minimal line server: accepts clients sequentially and feeds every
/// received line to a callback on a background thread.
///
/// Used by benchmarks and tests as the "measurement process" counterpart of
/// the TCP setup. By default exactly one connection is served (the historic
/// behaviour); raise `set_max_connections` to let a resilient client
/// reconnect after forced disconnects. A final line without a trailing
/// newline is still delivered when the peer disconnects.
class TcpLineServer {
 public:
  using LineFn = std::function<void(std::string_view line)>;

  TcpLineServer() = default;
  ~TcpLineServer();

  TcpLineServer(const TcpLineServer&) = delete;
  TcpLineServer& operator=(const TcpLineServer&) = delete;

  /// Maximum sequential connections to serve before the server thread
  /// exits (default 1). Call before Start.
  void set_max_connections(size_t n) { max_connections_ = n; }

  /// Close each connection after this many total lines were received
  /// (0 = never) — simulates a measurement process dying mid-replay.
  void set_close_after_lines(uint64_t n) { close_after_lines_ = n; }

  /// Binds to 127.0.0.1 on an ephemeral (or given) port and starts
  /// listening. Returns the bound port.
  Result<uint16_t> Start(LineFn on_line, uint16_t port = 0);

  /// Asks the server thread to exit: wakes a blocked accept AND shuts down
  /// any connection currently blocked in read, so a watchdog abort can
  /// never leave the server thread wedged. Needed before Join when
  /// max_connections was not exhausted.
  void Stop();

  /// Waits for the service thread to finish and joins it.
  void Join();

  /// Lines received so far (across all connections).
  uint64_t lines_received() const {
    return lines_.load(std::memory_order_relaxed);
  }

  /// Connections accepted so far.
  uint64_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  /// Reads one connection until EOF / close trigger. Returns false when
  /// the server should stop accepting.
  bool ServeConnection(int conn);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  size_t max_connections_ = 1;
  uint64_t close_after_lines_ = 0;
  std::thread thread_;
  LineFn on_line_;
  std::atomic<uint64_t> lines_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<bool> stop_{false};
  /// Active connection fd; guarded by conn_mu_ so Stop can shut it down
  /// without racing the server thread's close.
  std::mutex conn_mu_;
  int conn_fd_ = -1;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_TCP_H_
