#include "distributed/control_channel.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "replayer/tcp.h"

namespace graphtides {

namespace {

/// Polls `fd` for `events` up to the deadline. OK = ready, Timeout = the
/// deadline passed, IoError otherwise. timeout_ms <= 0 blocks.
Status PollFor(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll");
  if (rc == 0) {
    return Status::Timeout("control channel idle for " +
                           std::to_string(timeout_ms) + " ms");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ControlChannel>> ControlChannel::Dial(
    const std::string& host, uint16_t port, int connect_timeout_ms) {
  Result<int> fd = DialTcp(host, port, connect_timeout_ms);
  GT_RETURN_NOT_OK(fd.status());
  return std::unique_ptr<ControlChannel>(new ControlChannel(fd.value()));
}

std::unique_ptr<ControlChannel> ControlChannel::Adopt(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<ControlChannel>(new ControlChannel(fd));
}

ControlChannel::~ControlChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void ControlChannel::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status ControlChannel::Send(const Frame& frame) {
  Result<std::string> encoded = EncodeFrame(frame);
  GT_RETURN_NOT_OK(encoded.status());
  const std::string& bytes = encoded.value();
  std::lock_guard<std::mutex> lock(send_mu_);
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("control channel shut down");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    GT_RETURN_NOT_OK(PollFor(fd_, POLLOUT, kSendTimeoutMs));
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("control send " +
                   std::string(FrameTypeName(frame.type)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Frame> ControlChannel::Receive(int timeout_ms) {
  // Drain frames already buffered before touching the socket.
  while (true) {
    Result<std::optional<Frame>> next = decoder_.Next();
    GT_RETURN_NOT_OK(next.status());
    if (next.value().has_value()) return std::move(*next.value());

    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::Unavailable("control channel shut down");
    }
    GT_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms));
    char buf[16 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("control recv");
    }
    if (n == 0) {
      // Peer closed: mid-frame is a protocol error, between frames is a
      // clean disconnect.
      GT_RETURN_NOT_OK(decoder_.Finish());
      return Status::Unavailable("peer closed control channel");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

ControlListener::~ControlListener() { Close(); }

Result<uint16_t> ControlListener::Listen(const std::string& host,
                                         uint16_t port) {
  GT_ASSIGN_OR_RETURN(const TcpListenSocket socket,
                      ListenTcp(host, port, /*backlog=*/16));
  port_ = socket.port;
  listen_fd_.store(socket.fd, std::memory_order_release);
  return port_;
}

Result<std::unique_ptr<ControlChannel>> ControlListener::Accept(
    int timeout_ms) {
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd < 0) return Status::Unavailable("listener closed");
  GT_RETURN_NOT_OK(PollFor(fd, POLLIN, timeout_ms));
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) {
    if (listen_fd_.load(std::memory_order_acquire) < 0) {
      return Status::Unavailable("listener closed");
    }
    return ErrnoStatus("accept");
  }
  return ControlChannel::Adopt(conn);
}

void ControlListener::Close() {
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace graphtides
