#include "replayer/resilient_sink.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "faults/chaos_sink.h"
#include "replayer/sharded_replayer.h"
#include "replayer/tcp.h"
#include "stream/event.h"

namespace graphtides {
namespace {

// Inner sink that fails a scripted number of times per delivery before
// succeeding, with a configurable error code.
class FlakySink final : public EventSink {
 public:
  explicit FlakySink(uint32_t failures_per_delivery,
                     StatusCode code = StatusCode::kUnavailable)
      : failures_per_delivery_(failures_per_delivery), code_(code) {}

  Status Deliver(const Event&) override {
    ++attempts;
    if (fails_so_far_ < failures_per_delivery_) {
      ++fails_so_far_;
      return Status(code_, "flaky");
    }
    fails_so_far_ = 0;
    ++delivered;
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }

  uint64_t attempts = 0;
  uint64_t delivered = 0;

 private:
  uint32_t failures_per_delivery_;
  StatusCode code_;
  uint32_t fails_so_far_ = 0;
};

TEST(ResilientSinkTest, RetriesTransientFailuresUntilSuccess) {
  FlakySink inner(3);
  ResilientSinkOptions options;
  options.retry_budget = 5;
  ResilientSink sink(&inner, options);
  sink.set_sleep_fn([](Duration) {});

  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_EQ(inner.attempts, 4u);
  EXPECT_EQ(inner.delivered, 1u);
  EXPECT_EQ(sink.stats().retries, 3u);
  EXPECT_EQ(sink.stats().giveups, 0u);
}

TEST(ResilientSinkTest, NonRetryableErrorReturnsImmediately) {
  FlakySink inner(100, StatusCode::kInvalidArgument);
  ResilientSink sink(&inner, ResilientSinkOptions{});
  sink.set_sleep_fn([](Duration) {});
  EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).IsInvalidArgument());
  EXPECT_EQ(inner.attempts, 1u);
  EXPECT_EQ(sink.stats().retries, 0u);
  EXPECT_EQ(sink.stats().giveups, 1u);
}

TEST(ResilientSinkTest, BackoffGrowsExponentiallyAndIsCapped) {
  FlakySink inner(6);
  ResilientSinkOptions options;
  options.retry_budget = 10;
  options.initial_backoff = Duration::FromMillis(1);
  options.backoff_multiplier = 2.0;
  options.max_backoff = Duration::FromMillis(4);
  options.jitter = 0.0;  // deterministic durations for this test
  ResilientSink sink(&inner, options);
  std::vector<int64_t> sleeps_ms;
  sink.set_sleep_fn([&](Duration d) { sleeps_ms.push_back(d.millis()); });

  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  // 1, 2, 4, then capped at 4.
  ASSERT_EQ(sleeps_ms.size(), 6u);
  EXPECT_EQ(sleeps_ms[0], 1);
  EXPECT_EQ(sleeps_ms[1], 2);
  EXPECT_EQ(sleeps_ms[2], 4);
  EXPECT_EQ(sleeps_ms[3], 4);
  EXPECT_EQ(sleeps_ms[5], 4);
}

TEST(ResilientSinkTest, JitterStaysWithinConfiguredFraction) {
  FlakySink inner(1);
  ResilientSinkOptions options;
  options.retry_budget = 2;
  options.initial_backoff = Duration::FromMillis(10);
  options.jitter = 0.2;
  ResilientSink sink(&inner, options);
  std::vector<int64_t> sleeps;
  sink.set_sleep_fn([&](Duration d) { sleeps.push_back(d.nanos()); });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  }
  const int64_t base = Duration::FromMillis(10).nanos();
  for (int64_t ns : sleeps) {
    EXPECT_GE(ns, static_cast<int64_t>(base * 0.8 - 1));
    EXPECT_LE(ns, static_cast<int64_t>(base * 1.2 + 1));
  }
}

TEST(ResilientSinkTest, FailFastReturnsErrorAfterBudgetExhausted) {
  FlakySink inner(100);
  ResilientSinkOptions options;
  options.retry_budget = 3;
  options.policy = DegradationPolicy::kFailFast;
  ResilientSink sink(&inner, options);
  sink.set_sleep_fn([](Duration) {});

  const Status st = sink.Deliver(Event::AddVertex(1));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(inner.attempts, 4u);  // initial + 3 retries
  EXPECT_EQ(sink.stats().retries, 3u);
  EXPECT_EQ(sink.stats().giveups, 1u);
  EXPECT_EQ(sink.stats().drops, 0u);
}

TEST(ResilientSinkTest, DropAndCountReportsSuccessAndCountsTheDrop) {
  FlakySink inner(100);
  ResilientSinkOptions options;
  options.retry_budget = 2;
  options.policy = DegradationPolicy::kDropAndCount;
  ResilientSink sink(&inner, options);
  sink.set_sleep_fn([](Duration) {});

  EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_EQ(sink.stats().drops, 1u);
  EXPECT_EQ(sink.stats().giveups, 0u);
  EXPECT_EQ(inner.delivered, 0u);
}

TEST(ResilientSinkTest, BlockPolicyRetriesPastTheBudget) {
  FlakySink inner(50);  // far beyond the nominal budget
  ResilientSinkOptions options;
  options.retry_budget = 3;
  options.policy = DegradationPolicy::kBlock;
  ResilientSink sink(&inner, options);
  sink.set_sleep_fn([](Duration) {});

  EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_EQ(inner.attempts, 51u);
  EXPECT_EQ(sink.stats().retries, 50u);
}

TEST(ResilientSinkTest, DeliverTimeoutIsTerminalEvenUnderBlock) {
  FlakySink inner(1000000);
  ResilientSinkOptions options;
  options.policy = DegradationPolicy::kBlock;
  options.deliver_timeout = Duration::FromMillis(10);
  ResilientSink sink(&inner, options);
  VirtualClock clock;
  sink.set_clock(&clock);
  // Each backoff advances the virtual clock, so the timeout fires after a
  // bounded number of attempts.
  sink.set_sleep_fn([&](Duration d) { clock.Advance(d); });

  const Status st = sink.Deliver(Event::AddVertex(1));
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
  EXPECT_GT(inner.attempts, 1u);
  EXPECT_LT(inner.attempts, 100u);
}

TEST(ResilientSinkTest, ReconnectsOnIoError) {
  FlakySink inner(2, StatusCode::kIoError);
  ResilientSinkOptions options;
  options.retry_budget = 5;
  int reconnects = 0;
  ResilientSink sink(&inner, options, [&] {
    ++reconnects;
    return Status::OK();
  });
  sink.set_sleep_fn([](Duration) {});

  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_EQ(reconnects, 2);
  EXPECT_EQ(sink.stats().reconnects, 2u);
}

TEST(ResilientSinkTest, FailedReconnectIsCountedAndRetried) {
  FlakySink inner(2, StatusCode::kIoError);
  ResilientSinkOptions options;
  options.retry_budget = 5;
  int calls = 0;
  ResilientSink sink(&inner, options, [&]() -> Status {
    ++calls;
    if (calls == 1) return Status::IoError("reconnect refused");
    return Status::OK();
  });
  sink.set_sleep_fn([](Duration) {});

  ASSERT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  EXPECT_EQ(sink.stats().failed_reconnects, 1u);
  EXPECT_EQ(sink.stats().reconnects, 1u);
}

TEST(ResilientSinkTest, PreconditionFailedRetryableOnlyWithReconnectHook) {
  {
    FlakySink inner(1, StatusCode::kPreconditionFailed);
    ResilientSink sink(&inner, ResilientSinkOptions{});
    sink.set_sleep_fn([](Duration) {});
    EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).IsPreconditionFailed());
  }
  {
    FlakySink inner(1, StatusCode::kPreconditionFailed);
    ResilientSink sink(&inner, ResilientSinkOptions{},
                       [] { return Status::OK(); });
    sink.set_sleep_fn([](Duration) {});
    EXPECT_TRUE(sink.Deliver(Event::AddVertex(1)).ok());
  }
}

TEST(ResilientSinkTest, ParseDegradationPolicyVocabulary) {
  EXPECT_EQ(*ParseDegradationPolicy("fail"), DegradationPolicy::kFailFast);
  EXPECT_EQ(*ParseDegradationPolicy("failfast"), DegradationPolicy::kFailFast);
  EXPECT_EQ(*ParseDegradationPolicy("drop"), DegradationPolicy::kDropAndCount);
  EXPECT_EQ(*ParseDegradationPolicy("block"), DegradationPolicy::kBlock);
  EXPECT_FALSE(ParseDegradationPolicy("explode").ok());
}

TEST(ResilientSinkTest, TelemetryReconcilesWithChaosSchedule) {
  // ResilientSink(ChaosSink(counting sink)): every injected fault must be
  // absorbed by a retry, and the merged telemetry must reconcile exactly.
  class CountingSink final : public EventSink {
   public:
    Status Deliver(const Event&) override {
      ++delivered;
      return Status::OK();
    }
    Status Finish() override { return Status::OK(); }
    uint64_t delivered = 0;
  };

  CountingSink bottom;
  ChaosOptions chaos_options;
  chaos_options.seed = 99;
  chaos_options.fail_probability = 0.02;
  ChaosSink chaos(&bottom, chaos_options);
  ResilientSinkOptions resilient_options;
  resilient_options.retry_budget = 50;  // ample: nothing gets dropped
  ResilientSink sink(&chaos, resilient_options);
  sink.set_sleep_fn([](Duration) {});

  const size_t kEvents = 10000;
  for (size_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(sink.Deliver(Event::AddVertex(i)).ok());
  }

  EXPECT_EQ(bottom.delivered, kEvents);
  EXPECT_EQ(chaos.stats().forwarded, kEvents);
  EXPECT_GT(chaos.stats().injected_failures, 0u);
  // Every failed attempt was retried; no giveups, no drops.
  EXPECT_EQ(sink.stats().retries, chaos.stats().injected_failures);
  EXPECT_EQ(sink.stats().giveups, 0u);
  EXPECT_EQ(sink.stats().drops, 0u);
  const SinkTelemetry t = sink.Telemetry();
  EXPECT_EQ(t.retries, sink.stats().retries);
  EXPECT_EQ(t.injected_failures, chaos.stats().injected_failures);
}

// The acceptance e2e: 50k events through ResilientSink(ChaosSink(TcpSink))
// with injected disconnects and stalls. Must complete with zero process
// crashes, seed-stable fault counts, and exactly reconciling telemetry.
struct E2eOutcome {
  uint64_t injected_failures = 0;
  uint64_t injected_disconnects = 0;
  uint64_t stalls = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t lines = 0;
  uint64_t connections = 0;
};

E2eOutcome RunChaoticTcpReplay() {
  constexpr size_t kEvents = 50000;

  TcpLineServer server;
  server.set_max_connections(1000);
  auto port = server.Start(nullptr);
  EXPECT_TRUE(port.ok());

  TcpSink tcp;
  EXPECT_TRUE(tcp.Connect("127.0.0.1", *port).ok());

  ChaosOptions chaos_options;
  chaos_options.seed = 1234;
  chaos_options.fail_probability = 0.0005;
  chaos_options.disconnect_probability = 0.0002;
  chaos_options.stall_probability = 0.0005;
  chaos_options.stall = Duration::FromMicros(50);
  ChaosSink chaos(&tcp, chaos_options, [&tcp] { tcp.Sever(); });

  ResilientSinkOptions resilient_options;
  resilient_options.retry_budget = 100;
  resilient_options.initial_backoff = Duration::FromMicros(10);
  resilient_options.max_backoff = Duration::FromMillis(1);
  ResilientSink sink(&chaos, resilient_options,
                     [&tcp] { return tcp.Reconnect(); });

  std::vector<Event> events;
  events.reserve(kEvents);
  for (VertexId v = 0; v < kEvents; ++v) events.push_back(Event::AddVertex(v));

  ShardedReplayerOptions replay_options;
  replay_options.total_rate_eps = 1e6;
  ShardedReplayer replayer(replay_options);
  auto run = replayer.Replay(events, {&sink});
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  // The server counts on its own thread, and Stop() drops what it has not
  // read yet; on a loaded host it can trail the sender by a whole
  // connection. Give it a bounded time to count every event first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.lines_received() < kEvents &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  server.Join();

  E2eOutcome out;
  out.injected_failures = chaos.stats().injected_failures;
  out.injected_disconnects = chaos.stats().injected_disconnects;
  out.stalls = chaos.stats().stalls;
  out.retries = sink.stats().retries;
  out.reconnects = sink.stats().reconnects;
  out.lines = server.lines_received();
  out.connections = server.connections_served();

  if (run.ok()) {
    const ReplayStats& stats = run->aggregate;
    EXPECT_EQ(stats.events_delivered, kEvents);
    // Replayer-visible telemetry reconciles with both layers' counters.
    EXPECT_EQ(stats.telemetry.retries, out.retries);
    EXPECT_EQ(stats.telemetry.reconnects, out.reconnects);
    EXPECT_EQ(stats.telemetry.injected_failures, out.injected_failures);
    EXPECT_EQ(stats.telemetry.injected_disconnects,
              out.injected_disconnects);
  }
  return out;
}

TEST(ResilientSinkE2eTest, ChaoticTcpReplayCompletesAndReconciles) {
  const E2eOutcome out = RunChaoticTcpReplay();

  // Chaos actually happened.
  EXPECT_GT(out.injected_failures, 0u);
  EXPECT_GT(out.injected_disconnects, 0u);
  EXPECT_GT(out.stalls, 0u);

  // Exact reconciliation: every chaos fault became exactly one retry; every
  // forced disconnect forced exactly one reconnect (budget was ample).
  EXPECT_EQ(out.retries, out.injected_failures + out.injected_disconnects);
  EXPECT_EQ(out.reconnects, out.injected_disconnects);
  EXPECT_EQ(out.connections, 1u + out.injected_disconnects);

  // Chaos fails *before* forwarding and the TcpSink buffer survives
  // Sever/Reconnect, so the server saw every event exactly once.
  EXPECT_EQ(out.lines, 50000u);
}

TEST(ResilientSinkE2eTest, ChaoticTcpReplayFaultCountsAreSeedStable) {
  const E2eOutcome a = RunChaoticTcpReplay();
  const E2eOutcome b = RunChaoticTcpReplay();
  EXPECT_EQ(a.injected_failures, b.injected_failures);
  EXPECT_EQ(a.injected_disconnects, b.injected_disconnects);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.lines, b.lines);
}

}  // namespace
}  // namespace graphtides
