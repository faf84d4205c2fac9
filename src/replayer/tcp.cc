#include "replayer/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/fault_plan.h"

namespace graphtides {

namespace {

// MSG_NOSIGNAL: a peer reset must surface as a Status, not a SIGPIPE that
// kills the replayer process mid-run.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("socket write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Result<TcpListenSocket> ListenTcp(const std::string& host, uint16_t port,
                                  int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(addr);
  Status failed;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = ErrnoStatus("bind " + resolved + ":" + std::to_string(port));
  } else if (::listen(fd, backlog) != 0) {
    failed = ErrnoStatus("listen");
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
             0) {
    failed = ErrnoStatus("getsockname");
  }
  if (!failed.ok()) {
    ::close(fd);
    return failed;
  }
  return TcpListenSocket{fd, ntohs(addr.sin_port)};
}

Result<int> DialTcp(const std::string& host, uint16_t port,
                    int connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const std::string where = resolved + ":" + std::to_string(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");

  if (connect_timeout_ms <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const Status s = ErrnoStatus("connect " + where);
      ::close(fd);
      return s;
    }
  } else {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        const Status s = ErrnoStatus("connect " + where);
        ::close(fd);
        return s;
      }
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, connect_timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        ::close(fd);
        return Status::Timeout("connect " + where + " timed out after " +
                               std::to_string(connect_timeout_ms) + " ms");
      }
      if (rc < 0) {
        const Status s = ErrnoStatus("connect poll " + where);
        ::close(fd);
        return s;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        ::close(fd);
        return Status::IoError("connect " + where + ": " +
                               std::strerror(err != 0 ? err : errno));
      }
    }
    // The deadline only governs the dial; delivery keeps the blocking
    // flow-control semantics.
    ::fcntl(fd, F_SETFL, flags);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

TcpSink::~TcpSink() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpSink::Dial() {
  Status last = Status::OK();
  for (int attempt = 0; attempt < connect_attempts_; ++attempt) {
    if (attempt > 0) {
      int backoff_ms = 50 * attempt;
      if (backoff_ms > 1000) backoff_ms = 1000;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    Result<int> fd = DialTcp(host_, port_, connect_timeout_ms_);
    if (fd.ok()) {
      fd_ = fd.value();
      buffer_.reserve(2 * kFlushBytes);
      return Status::OK();
    }
    last = fd.status();
    if (last.code() == StatusCode::kInvalidArgument) break;  // not retryable
  }
  fd_ = -1;
  return last;
}

Status TcpSink::Connect(const std::string& host, uint16_t port) {
  host_ = host;
  port_ = port;
  GT_RETURN_NOT_OK(Dial());
  ever_connected_ = true;
  return Status::OK();
}

Status TcpSink::Reconnect() {
  if (!ever_connected_) {
    return Status::PreconditionFailed("TcpSink was never connected");
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  GT_RETURN_NOT_OK(Dial());
  ++reconnects_;
  return Status::OK();
}

void TcpSink::Sever() {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
}

void TcpSink::Abort() {
  // shutdown() only — the blocked send() in the owning thread returns with
  // an error at once, and that thread keeps sole responsibility for
  // close(), so an fd recycled by the kernel cannot be shut down by
  // mistake.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status TcpSink::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  // Injected ENOSPC/short-write gate (same contract as PipeSink): the
  // allowed prefix lands on the socket, then the fault latches and every
  // later flush fails with 0 allowed bytes.
  size_t allowed = buffer_.size();
  std::string fault;
  const bool clipped =
      FaultPlan::Global().ClipFileWrite(buffer_.size(), &allowed, &fault);
  const size_t to_write = clipped ? allowed : buffer_.size();
  if (to_write > 0) {
    // On failure the buffer is kept: a retry after Reconnect re-sends it
    // (at-least-once semantics on the fault path).
    GT_RETURN_NOT_OK(WriteAll(fd_, buffer_.data(), to_write));
    bytes_.fetch_add(to_write, std::memory_order_relaxed);
    buffer_.erase(0, to_write);
  }
  if (clipped) return Status::IoError("socket write failed: " + fault);
  return Status::OK();
}

Status TcpSink::Deliver(const Event& event) {
  if (fd_ < 0) return Status::PreconditionFailed("TcpSink not connected");
  if (wire_ == WireFormat::kV2) {
    // Per-event callers on a v2-negotiated connection still produce a
    // valid v2 byte stream: one sealed single-record block per event.
    v2_encoder_.Add(event.type, event.vertex, event.edge, event.payload,
                    event.rate_factor, event.pause);
    v2_encoder_.SealTo(&buffer_);
  } else {
    // Serialize straight into the send buffer — no per-event temporary.
    AppendEventLine(event, &buffer_);
  }
  if (buffer_.size() >= kFlushBytes) return FlushBuffer();
  return Status::OK();
}

Result<WireFormat> TcpSink::NegotiateWireFormat(WireFormat preferred) {
  if (preferred != WireFormat::kV2 || !allow_v2_) return WireFormat::kCsv;
  if (wire_ != WireFormat::kV2) {
    wire_ = WireFormat::kV2;
    // The preamble enters the send buffer like any payload, so it is the
    // first bytes on the wire and survives a pre-flush reconnect.
    AppendV2Preamble(&buffer_);
  }
  return WireFormat::kV2;
}

Status TcpSink::DeliverSerialized(std::string_view lines, size_t count) {
  (void)count;
  if (fd_ < 0) return Status::PreconditionFailed("TcpSink not connected");
  buffer_ += lines;
  if (buffer_.size() >= kFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status TcpSink::Finish() {
  if (fd_ < 0) return Status::OK();
  if (wire_ == WireFormat::kV2 && !sentinel_written_) {
    sentinel_written_ = true;
    AppendV2SentinelBlock(&buffer_);
  }
  GT_RETURN_NOT_OK(FlushBuffer());
  ::shutdown(fd_, SHUT_WR);
  ::close(fd_);
  fd_ = -1;
  return Status::OK();
}

TcpLineServer::~TcpLineServer() {
  if (thread_.joinable()) {
    Stop();
    thread_.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<uint16_t> TcpLineServer::Start(LineFn on_line, uint16_t port) {
  on_line_ = std::move(on_line);
  GT_ASSIGN_OR_RETURN(const TcpListenSocket socket,
                      ListenTcp("127.0.0.1", port, /*backlog=*/8));
  listen_fd_ = socket.fd;
  port_ = socket.port;
  thread_ = std::thread([this] { Serve(); });
  return port_;
}

bool TcpLineServer::ServeConnection(int conn) {
  std::string pending;
  char buf[64 * 1024];
  bool keep_accepting = true;
  while (true) {
    const ssize_t n = ::read(conn, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed
    pending.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    while (true) {
      const size_t nl = pending.find('\n', start);
      if (nl == std::string::npos) break;
      if (on_line_) {
        on_line_(std::string_view(pending).substr(start, nl - start));
      }
      lines_.fetch_add(1, std::memory_order_relaxed);
      start = nl + 1;
    }
    pending.erase(0, start);
    if (close_after_lines_ != 0 &&
        lines_.load(std::memory_order_relaxed) >= close_after_lines_) {
      // Simulated crash of the measurement process: drop the connection
      // (and stop serving) while the client may still be sending.
      keep_accepting = false;
      break;
    }
  }
  // A final line without a trailing newline still counts: the peer's
  // disconnect terminates it.
  if (!pending.empty()) {
    if (on_line_) on_line_(std::string_view(pending));
    lines_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ::close(conn);
    conn_fd_ = -1;
  }
  return keep_accepting;
}

void TcpLineServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed) &&
         connections_.load(std::memory_order_relaxed) < max_connections_) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(conn);  // wake-up connection from Stop()
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fd_ = conn;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (!ServeConnection(conn)) return;
  }
}

void TcpLineServer::Stop() {
  if (stop_.exchange(true)) return;
  // Unblock a connection stuck in read(). shutdown() under the lock, never
  // close() — the server thread owns the close, and closing here could
  // shut down an unrelated recycled fd.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  }
  // Wake a blocked accept with a throwaway connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
}

void TcpLineServer::Join() {
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace graphtides
