#include "replayer/tcp.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replayer/sharded_replayer.h"
#include "stream/event.h"

namespace graphtides {
namespace {

TEST(TcpTest, SinkDeliversLinesToServer) {
  TcpLineServer server;
  std::mutex mu;
  std::vector<std::string> lines;
  auto port = server.Start([&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  ASSERT_TRUE(port.ok());

  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", *port).ok());
  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1, "a")).ok());
  ASSERT_TRUE(sink.Deliver(Event::AddEdge(1, 2, "b")).ok());
  ASSERT_TRUE(sink.Finish().ok());
  server.Join();

  ASSERT_EQ(server.lines_received(), 2u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(lines[0], "CREATE_VERTEX,1,a");
  EXPECT_EQ(lines[1], "CREATE_EDGE,1-2,b");
}

TEST(TcpTest, LinesParseBackToEvents) {
  TcpLineServer server;
  std::mutex mu;
  std::vector<Event> received;
  auto port = server.Start([&](std::string_view line) {
    auto parsed = ParseEventLine(line);
    ASSERT_TRUE(parsed.ok());
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(parsed).value());
  });
  ASSERT_TRUE(port.ok());

  std::vector<Event> sent;
  for (VertexId v = 0; v < 100; ++v) sent.push_back(Event::AddVertex(v));
  TcpSink sink;
  ASSERT_TRUE(sink.Connect("localhost", *port).ok());
  for (const Event& e : sent) ASSERT_TRUE(sink.Deliver(e).ok());
  ASSERT_TRUE(sink.Finish().ok());
  server.Join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, sent);
}

TEST(TcpTest, ReplayerOverTcpEndToEnd) {
  TcpLineServer server;
  auto port = server.Start(nullptr);
  ASSERT_TRUE(port.ok());

  std::vector<Event> events;
  for (VertexId v = 0; v < 5000; ++v) events.push_back(Event::AddVertex(v));

  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", *port).ok());
  ShardedReplayerOptions options;
  options.total_rate_eps = 200000.0;
  ShardedReplayer replayer(options);
  auto stats = replayer.Replay(events, {&sink});
  ASSERT_TRUE(stats.ok());
  server.Join();
  EXPECT_EQ(stats->aggregate.events_delivered, 5000u);
  EXPECT_EQ(server.lines_received(), 5000u);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpSink sink;
  // Port 1 on loopback is essentially never listening.
  const Status st = sink.Connect("127.0.0.1", 1);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(sink.connected());
}

TEST(TcpTest, InvalidAddressRejected) {
  TcpSink sink;
  EXPECT_TRUE(sink.Connect("not-a-host-name", 8080).IsInvalidArgument());
}

TEST(TcpTest, DeliverWithoutConnectFails) {
  TcpSink sink;
  EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).IsPreconditionFailed());
}

TEST(TcpTest, FinalPartialLineDeliveredAtDisconnect) {
  TcpLineServer server;
  std::mutex mu;
  std::vector<std::string> lines;
  auto port = server.Start([&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  ASSERT_TRUE(port.ok());

  // Raw client: the last line has no trailing newline before the peer
  // closes — it must still be delivered.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string payload = "first line\nsecond line\nlast-line-no-newline";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  ::close(fd);
  server.Join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first line");
  EXPECT_EQ(lines[1], "second line");
  EXPECT_EQ(lines[2], "last-line-no-newline");
  EXPECT_EQ(server.lines_received(), 3u);
}

TEST(TcpTest, PeerDeathSurfacesAsStatusNotSigpipe) {
  // Regression: the server kills the connection mid-replay. Without
  // MSG_NOSIGNAL the process would die of SIGPIPE on the next send; with
  // it, the replayer must return an error Status and the test must still
  // be running to observe it.
  TcpLineServer server;
  server.set_close_after_lines(10);
  auto port = server.Start(nullptr);
  ASSERT_TRUE(port.ok());

  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", *port).ok());

  std::vector<Event> events;
  for (VertexId v = 0; v < 100000; ++v) {
    events.push_back(Event::AddVertex(v));
  }
  ShardedReplayerOptions options;
  options.total_rate_eps = 5e6;
  ShardedReplayer replayer(options);
  auto stats = replayer.Replay(events, {&sink});

  EXPECT_FALSE(stats.ok());  // the run aborted, the process survived
  server.Join();
  // The trigger is checked per read chunk, so at least 10 lines arrived but
  // far from all of them.
  EXPECT_GE(server.lines_received(), 10u);
  EXPECT_LT(server.lines_received(), 100000u);
}

TEST(TcpTest, ReconnectResumesDeliveryAndKeepsBufferedLines) {
  TcpLineServer server;
  server.set_max_connections(2);
  std::mutex mu;
  std::vector<std::string> lines;
  auto port = server.Start([&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  ASSERT_TRUE(port.ok());

  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", *port).ok());
  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());

  // Sever before the (buffered) line was flushed: the line must survive
  // the reconnect and arrive over the second connection.
  sink.Sever();
  EXPECT_FALSE(sink.connected());
  EXPECT_FALSE(sink.Deliver(Event::AddVertex(2)).ok());
  ASSERT_TRUE(sink.Reconnect().ok());
  EXPECT_TRUE(sink.connected());
  EXPECT_EQ(sink.reconnects(), 1u);
  ASSERT_TRUE(sink.Deliver(Event::AddVertex(3)).ok());
  ASSERT_TRUE(sink.Finish().ok());
  server.Join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "CREATE_VERTEX,1,");
  EXPECT_EQ(lines[1], "CREATE_VERTEX,3,");
  EXPECT_EQ(server.connections_served(), 2u);
}

TEST(TcpTest, ReconnectWithoutConnectFails) {
  TcpSink sink;
  EXPECT_TRUE(sink.Reconnect().IsPreconditionFailed());
}

TEST(TcpTest, StopUnblocksServerBlockedInAccept) {
  TcpLineServer server;
  auto port = server.Start(nullptr);
  ASSERT_TRUE(port.ok());
  // No client ever connects: the server thread is blocked in accept().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  server.Join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(TcpTest, StopUnblocksServerBlockedInRead) {
  // Regression: a client connects and then goes silent, leaving the server
  // thread blocked in read() on the connection. Stop must shut that
  // connection down too — not just wake the accept loop — or a watchdog
  // abort leaves the thread wedged forever.
  TcpLineServer server;
  auto port = server.Start(nullptr);
  ASSERT_TRUE(port.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Let the server accept and park in read().
  while (server.connections_served() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  server.Join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  ::close(fd);
}

TEST(TcpTest, AbortUnblocksSinkBlockedInSend) {
  // Regression: the peer accepts but never reads, so the sink eventually
  // blocks in send() once both socket buffers fill. A supervisor thread
  // calling Abort() must unblock it with an error instead of leaving the
  // emitter thread stuck past a watchdog cancel.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", ntohs(addr.sin_port)).ok());
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(conn, 0);

  // Flood the never-reading peer until Deliver errors out. Without Abort
  // this loop would block indefinitely once the buffers fill.
  std::atomic<bool> errored{false};
  std::thread emitter([&] {
    const Event e = Event::AddVertex(1, std::string(1024, 'x'));
    for (int i = 0; i < 1000000; ++i) {
      if (!sink.Deliver(e).ok()) {
        errored = true;
        return;
      }
    }
  });
  // Give the emitter time to wedge in send(), then abort from this thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sink.Abort();
  emitter.join();
  EXPECT_TRUE(errored);

  ::close(conn);
  ::close(listen_fd);
}

TEST(TcpTest, FinishIdempotent) {
  TcpLineServer server;
  auto port = server.Start(nullptr);
  ASSERT_TRUE(port.ok());
  TcpSink sink;
  ASSERT_TRUE(sink.Connect("127.0.0.1", *port).ok());
  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_TRUE(sink.Finish().ok());
  EXPECT_TRUE(sink.Finish().ok());
  server.Join();
}

}  // namespace
}  // namespace graphtides
