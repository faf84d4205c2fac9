#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness/telemetry/latency_histogram.h"
#include "harness/telemetry/run_telemetry.h"
#include "harness/telemetry/snapshot.h"
#include "harness/telemetry/snapshotter.h"
#include "harness/telemetry/streaming_marker_correlator.h"

namespace graphtides {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_nanos(), 0);
  EXPECT_EQ(h.max_nanos(), 0);
  EXPECT_EQ(h.ValueAtQuantileNanos(0.5), 0);
  EXPECT_DOUBLE_EQ(h.mean_nanos(), 0.0);
}

TEST(LatencyHistogramTest, BucketBoundsPartitionTheValueRange) {
  // Buckets must tile [0, 2^40) with no gaps or overlaps, and BucketIndex
  // must send each bound into its own bucket.
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    const int64_t low = LatencyHistogram::BucketLowNanos(i);
    const int64_t high = LatencyHistogram::BucketHighNanos(i);
    ASSERT_LT(low, high) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::BucketIndex(low), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(high - 1), i);
    if (i + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_EQ(high, LatencyHistogram::BucketLowNanos(i + 1));
    }
  }
  EXPECT_EQ(LatencyHistogram::BucketLowNanos(0), 0);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int64_t v = 0; v < 16; ++v) h.RecordNanos(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min_nanos(), 0);
  EXPECT_EQ(h.max_nanos(), 15);
  // Unit buckets: every value in [0, 16) is recovered exactly.
  EXPECT_EQ(h.ValueAtQuantileNanos(0.0), 0);
  EXPECT_EQ(h.ValueAtQuantileNanos(1.0), 15);
  EXPECT_EQ(h.ValueAtQuantileNanos(0.5), 7);
}

TEST(LatencyHistogramTest, NegativeAndHugeValuesClamp) {
  LatencyHistogram h;
  h.RecordNanos(-5);
  h.RecordNanos(int64_t{1} << 55);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min_nanos(), 0);
  // The huge value clamps into the top bucket but max stays exact-clamped.
  EXPECT_EQ(LatencyHistogram::BucketIndex(h.max_nanos()),
            LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogramTest, QuantilesStayWithinBucketRelativeError) {
  Rng rng(1234);
  std::vector<int64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across ~7 orders of magnitude, like real latencies.
    const double exponent = 1.0 + rng.NextDouble() * 7.0;
    const int64_t v = static_cast<int64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    h.RecordNanos(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(q * static_cast<double>(values.size())));
    const double truth = static_cast<double>(values[rank]);
    const double est = static_cast<double>(h.ValueAtQuantileNanos(q));
    // Bucket width is 12.5%; the midpoint estimate must stay within one
    // bucket of the true order statistic.
    EXPECT_NEAR(est, truth, truth * 0.13)
        << "q=" << q << " truth=" << truth << " est=" << est;
  }
}

TEST(LatencyHistogramTest, MergeOfAnyPartitionEqualsTheWhole) {
  // The determinism property behind sharded replay telemetry: however the
  // sample stream is partitioned across shards, merging the parts yields
  // bit-identical state (and therefore identical quantiles).
  Rng rng(99);
  std::vector<int64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextDouble() * 1e8));
  }
  LatencyHistogram whole;
  for (int64_t v : values) whole.RecordNanos(v);

  for (size_t parts : {2u, 3u, 7u, 16u}) {
    std::vector<LatencyHistogram> shards(parts);
    for (int64_t v : values) {
      shards[static_cast<size_t>(rng.NextDouble() * parts) % parts]
          .RecordNanos(v);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& s : shards) merged.Merge(s);
    EXPECT_TRUE(merged == whole) << parts << " parts";
    EXPECT_EQ(merged.ValueAtQuantileNanos(0.5), whole.ValueAtQuantileNanos(0.5));
    EXPECT_EQ(merged.ValueAtQuantileNanos(0.99),
              whole.ValueAtQuantileNanos(0.99));
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min_nanos(), whole.min_nanos());
    EXPECT_EQ(merged.max_nanos(), whole.max_nanos());
    EXPECT_DOUBLE_EQ(merged.mean_nanos(), whole.mean_nanos());
  }
}

TEST(LatencyHistogramTest, MergeIntoEmptyAndOfEmptyAreIdentities) {
  LatencyHistogram a;
  a.RecordNanos(100);
  a.RecordNanos(2000);
  LatencyHistogram b;
  b.Merge(a);
  EXPECT_TRUE(b == a);
  a.Merge(LatencyHistogram{});
  EXPECT_TRUE(b == a);
}

// ---------------------------------------------------------------------------
// StreamingMarkerCorrelator

TEST(StreamingCorrelatorTest, MatchesOldestPendingSendOfLabel) {
  StreamingMarkerCorrelator c;
  c.MarkerSent("M1", Timestamp::FromMillis(10));
  c.MarkerSent("M1", Timestamp::FromMillis(20));
  EXPECT_TRUE(c.MarkerObserved("M1", Timestamp::FromMillis(25)));
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.matched, 1u);
  EXPECT_EQ(counts.pending, 1u);
  // Oldest send (t=10) was consumed: latency is 15 ms, not 5 ms.
  const LatencyHistogram lat = c.LatencySnapshot();
  EXPECT_EQ(lat.count(), 1u);
  EXPECT_EQ(lat.max_nanos(), Duration::FromMillis(15).nanos());
}

TEST(StreamingCorrelatorTest, ObservationBeforeAnySendIsOrphan) {
  StreamingMarkerCorrelator c;
  EXPECT_FALSE(c.MarkerObserved("M1", Timestamp::FromMillis(5)));
  c.MarkerSent("M1", Timestamp::FromMillis(10));
  EXPECT_FALSE(c.MarkerObserved("M1", Timestamp::FromMillis(9)));
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.orphan_observations, 2u);
  EXPECT_EQ(counts.matched, 0u);
  EXPECT_EQ(counts.pending, 1u);
}

TEST(StreamingCorrelatorTest, ZeroLatencyObservationMatches) {
  StreamingMarkerCorrelator c;
  c.MarkerSent("M", Timestamp::FromMillis(100));
  EXPECT_TRUE(c.MarkerObserved("M", Timestamp::FromMillis(100)));
  EXPECT_EQ(c.Counts().matched, 1u);
}

TEST(StreamingCorrelatorTest, ExpireBeforeTimesOutOldPendingSends) {
  StreamingCorrelatorOptions options;
  options.pending_timeout = Duration::FromMillis(50);
  StreamingMarkerCorrelator c(options);
  c.MarkerSent("OLD", Timestamp::FromMillis(0));
  c.MarkerSent("NEW", Timestamp::FromMillis(40));
  EXPECT_EQ(c.ExpireBefore(Timestamp::FromMillis(60)), 1u);
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.unmatched, 1u);
  EXPECT_EQ(counts.pending, 1u);
  // The expired send can no longer match.
  EXPECT_FALSE(c.MarkerObserved("OLD", Timestamp::FromMillis(70)));
  EXPECT_TRUE(c.MarkerObserved("NEW", Timestamp::FromMillis(70)));
}

TEST(StreamingCorrelatorTest, PendingBudgetEvictsOldestFirst) {
  StreamingCorrelatorOptions options;
  options.max_pending = 4;
  options.keep_records = true;
  StreamingMarkerCorrelator c(options);
  for (int i = 0; i < 10; ++i) {
    c.MarkerSent(std::string("M").append(std::to_string(i)),
                 Timestamp::FromMillis(i));
  }
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.pending, 4u);
  EXPECT_EQ(counts.unmatched, 6u);
  const auto evicted = c.TakeUnmatchedLabels();
  ASSERT_EQ(evicted.size(), 6u);
  EXPECT_EQ(evicted.front(), "M0");
  EXPECT_EQ(evicted.back(), "M5");
}

TEST(StreamingCorrelatorTest, FinishFlushesEverythingPending) {
  StreamingMarkerCorrelator c;
  c.MarkerSent("A", Timestamp::FromMillis(1));
  c.MarkerSent("B", Timestamp::FromMillis(2));
  EXPECT_TRUE(c.MarkerObserved("A", Timestamp::FromMillis(3)));
  c.Finish();
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.matched, 1u);
  EXPECT_EQ(counts.unmatched, 1u);
  EXPECT_EQ(counts.pending, 0u);
}

TEST(StreamingCorrelatorTest, KeepRecordsRetainsMatchedMarkers) {
  StreamingCorrelatorOptions options;
  options.keep_records = true;
  StreamingMarkerCorrelator c(options);
  c.MarkerSent("W1", Timestamp::FromMillis(10));
  c.MarkerObserved("W1", Timestamp::FromMillis(32));
  auto matched = c.TakeMatched();
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0].label, "W1");
  EXPECT_EQ(matched[0].sent, Timestamp::FromMillis(10));
  EXPECT_EQ(matched[0].observed, Timestamp::FromMillis(32));
  // Drained: a second Take returns nothing.
  EXPECT_TRUE(c.TakeMatched().empty());
}

TEST(StreamingCorrelatorTest, ConcurrentSendersAndObserversStayConsistent) {
  // TSan-covered: senders, observers, an expirer, and a Counts() poller all
  // race on one correlator; cumulative counters must still reconcile.
  StreamingMarkerCorrelator c;
  constexpr int kPerThread = 2000;
  constexpr int kSenders = 3;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  auto label = [](int s, int i) {
    std::string out("T");
    out.append(std::to_string(s)).append("-").append(std::to_string(i));
    return out;
  };
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&c, &go, &label, s] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        c.MarkerSent(label(s, i), Timestamp::FromNanos(i));
      }
    });
    threads.emplace_back([&c, &go, &label, s] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        c.MarkerObserved(label(s, i), Timestamp::FromNanos(i + 1));
      }
    });
  }
  threads.emplace_back([&c, &go] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 100; ++i) {
      c.Counts();
      c.LatencySnapshot();
      c.ExpireBefore(Timestamp::FromNanos(0));
      std::this_thread::yield();
    }
  });
  go.store(true);
  for (auto& t : threads) t.join();
  c.Finish();
  const CorrelatorCounts counts = c.Counts();
  EXPECT_EQ(counts.sent, static_cast<uint64_t>(kSenders) * kPerThread);
  EXPECT_EQ(counts.observed, static_cast<uint64_t>(kSenders) * kPerThread);
  EXPECT_EQ(counts.matched + counts.unmatched, counts.sent);
  EXPECT_EQ(counts.matched + counts.orphan_observations, counts.observed);
  EXPECT_EQ(counts.pending, 0u);
  EXPECT_EQ(c.LatencySnapshot().count(), counts.matched);
}

// ---------------------------------------------------------------------------
// RunTelemetry

TEST(RunTelemetryTest, MergedShardHistogramsMatchSingleShardRecording) {
  // Same deterministic span stream recorded through 1 shard and through 4:
  // the merged stage histograms must be identical, which is what makes
  // `gt_replay --shards N` telemetry percentiles shard-count-invariant.
  RunTelemetryOptions single_opts;
  single_opts.shards = 1;
  RunTelemetry single(single_opts);
  RunTelemetryOptions sharded_opts;
  sharded_opts.shards = 4;
  RunTelemetry sharded(sharded_opts);

  for (int i = 0; i < 4000; ++i) {
    const auto stage = static_cast<ReplayStage>(i % kReplayStageCount);
    const Duration span = Duration::FromNanos(37 + (i * i) % 1000000);
    single.RecordStage(0, stage, span);
    sharded.RecordStage(i % 4, stage, span);
  }
  const auto merged_single = single.MergedStageHistograms();
  const auto merged_sharded = sharded.MergedStageHistograms();
  for (size_t s = 0; s < kReplayStageCount; ++s) {
    EXPECT_TRUE(merged_single[s] == merged_sharded[s])
        << ReplayStageName(static_cast<ReplayStage>(s));
  }
}

TEST(RunTelemetryTest, SnapshotAggregatesShardSlots) {
  RunTelemetryOptions options;
  options.shards = 3;
  RunTelemetry telemetry(options);
  telemetry.AddDelivered(0, 100);
  telemetry.AddDelivered(1, 100);
  telemetry.AddDelivered(2, 100);
  DeliveryCounters faults;
  faults.retries = 5;
  faults.backoff_s = 0.25;
  telemetry.UpdateDeliveryCounters(1, faults);
  telemetry.RecordStage(2, ReplayStage::kDeliver, Duration::FromMicros(12));

  EXPECT_EQ(telemetry.TotalDelivered(), 300u);
  const TelemetrySnapshot snap = telemetry.Snapshot();
  EXPECT_EQ(snap.events, 300u);
  ASSERT_EQ(snap.shard_events.size(), 3u);
  EXPECT_EQ(snap.shard_events[0], 100u);
  EXPECT_DOUBLE_EQ(snap.shard_imbalance, 0.0);
  EXPECT_EQ(snap.sink.retries, 5u);
  EXPECT_DOUBLE_EQ(snap.sink.backoff_s, 0.25);
  EXPECT_EQ(snap.stages[static_cast<size_t>(ReplayStage::kDeliver)].count, 1u);
}

TEST(RunTelemetryTest, SamplingGateFiresOncePerPeriod) {
  RunTelemetryOptions options;
  options.sample_every = 8;
  RunTelemetry telemetry(options);
  int sampled = 0;
  for (int i = 0; i < 64; ++i) sampled += telemetry.ShouldSample(0) ? 1 : 0;
  EXPECT_EQ(sampled, 8);
}

TEST(RunTelemetryTest, ConcurrentRecordingFromManyThreads) {
  // TSan-covered: four lanes record stages/counters while a reader thread
  // snapshots — the exact interleaving is unconstrained but totals must
  // reconcile after the join.
  RunTelemetryOptions options;
  options.shards = 4;
  RunTelemetry telemetry(options);
  constexpr uint64_t kPerLane = 5000;
  std::vector<std::thread> lanes;
  for (size_t shard = 0; shard < 4; ++shard) {
    lanes.emplace_back([&telemetry, shard] {
      for (uint64_t i = 0; i < kPerLane; ++i) {
        if (telemetry.ShouldSample(shard)) {
          telemetry.RecordStage(shard, ReplayStage::kDeliver,
                                Duration::FromNanos(static_cast<int64_t>(i)));
        }
        telemetry.AddDelivered(shard, 1);
      }
      DeliveryCounters totals;
      totals.retries = shard;
      telemetry.UpdateDeliveryCounters(shard, totals);
    });
  }
  std::thread snapshotter([&telemetry] {
    for (int i = 0; i < 50; ++i) {
      const TelemetrySnapshot snap = telemetry.Snapshot();
      ASSERT_LE(snap.events, 4 * kPerLane);
      std::this_thread::yield();
    }
  });
  for (auto& t : lanes) t.join();
  snapshotter.join();
  const TelemetrySnapshot snap = telemetry.Snapshot();
  EXPECT_EQ(snap.events, 4 * kPerLane);
  EXPECT_EQ(snap.sink.retries, 0u + 1 + 2 + 3);
  const uint64_t expected_samples =
      4 * (kPerLane / RunTelemetryOptions{}.sample_every);
  EXPECT_EQ(snap.stages[static_cast<size_t>(ReplayStage::kDeliver)].count,
            expected_samples);
}

// ---------------------------------------------------------------------------
// TelemetrySnapshot JSONL

TelemetrySnapshot MakeFullSnapshot() {
  TelemetrySnapshot snap;
  snap.seq = 7;
  snap.elapsed_s = 3.5;
  snap.events = 123456;
  snap.events_per_sec = 35273.14;
  snap.shard_events = {60000, 63456};
  snap.ComputeImbalance();
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.RecordNanos(i * 997);
  snap.stages[static_cast<size_t>(ReplayStage::kDeliver)] =
      StageSummary::FromHistogram(h);
  snap.stages[static_cast<size_t>(ReplayStage::kThrottle)] =
      StageSummary::FromHistogram(h);
  snap.markers.sent = 10;
  snap.markers.matched = 8;
  snap.markers.unmatched = 1;
  snap.markers.pending = 1;
  snap.markers.orphans = 2;
  snap.markers.latency = StageSummary::FromHistogram(h);
  snap.sink.retries = 3;
  snap.sink.reconnects = 1;
  snap.sink.backoff_s = 0.125;
  return snap;
}

void ExpectSummaryEq(const StageSummary& a, const StageSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_NEAR(a.p50_us, b.p50_us, std::abs(b.p50_us) * 1e-9);
  EXPECT_NEAR(a.p90_us, b.p90_us, std::abs(b.p90_us) * 1e-9);
  EXPECT_NEAR(a.p99_us, b.p99_us, std::abs(b.p99_us) * 1e-9);
  EXPECT_NEAR(a.p999_us, b.p999_us, std::abs(b.p999_us) * 1e-9);
  EXPECT_NEAR(a.max_us, b.max_us, std::abs(b.max_us) * 1e-9);
}

TEST(TelemetrySnapshotTest, JsonLineRoundTripsAllFields) {
  const TelemetrySnapshot snap = MakeFullSnapshot();
  const std::string line = snap.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);

  auto parsed = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, snap.seq);
  EXPECT_NEAR(parsed->elapsed_s, snap.elapsed_s, 1e-9);
  EXPECT_EQ(parsed->events, snap.events);
  EXPECT_NEAR(parsed->events_per_sec, snap.events_per_sec, 1e-3);
  EXPECT_EQ(parsed->shard_events, snap.shard_events);
  EXPECT_NEAR(parsed->shard_imbalance, snap.shard_imbalance, 1e-9);
  for (size_t s = 0; s < kReplayStageCount; ++s) {
    ExpectSummaryEq(parsed->stages[s], snap.stages[s]);
  }
  EXPECT_EQ(parsed->markers.sent, snap.markers.sent);
  EXPECT_EQ(parsed->markers.matched, snap.markers.matched);
  EXPECT_EQ(parsed->markers.unmatched, snap.markers.unmatched);
  EXPECT_EQ(parsed->markers.pending, snap.markers.pending);
  EXPECT_EQ(parsed->markers.orphans, snap.markers.orphans);
  ExpectSummaryEq(parsed->markers.latency, snap.markers.latency);
  EXPECT_EQ(parsed->sink.retries, snap.sink.retries);
  EXPECT_EQ(parsed->sink.reconnects, snap.sink.reconnects);
  EXPECT_NEAR(parsed->sink.backoff_s, snap.sink.backoff_s, 1e-9);
}

TEST(TelemetrySnapshotTest, MinimalSnapshotRoundTrips) {
  TelemetrySnapshot snap;
  snap.shard_events = {0};
  auto parsed = TelemetrySnapshot::FromJsonLine(snap.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->events, 0u);
  EXPECT_EQ(parsed->markers.sent, 0u);
  EXPECT_FALSE(parsed->sink.any());
}

TEST(TelemetrySnapshotTest, RejectsMalformedAndWrongSchemaLines) {
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("not json").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("{\"seq\":0}").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine(
                   "{\"schema\":\"gt-telemetry-v9\",\"seq\":0}")
                   .ok());
  // Trailing garbage after a valid object is malformed, not ignored.
  TelemetrySnapshot snap;
  snap.shard_events = {0};
  EXPECT_FALSE(
      TelemetrySnapshot::FromJsonLine(snap.ToJsonLine() + " trailing").ok());
}

TEST(TelemetrySnapshotTest, RecoveryBlockEmitsOnlyWhenNonZero) {
  TelemetrySnapshot snap;
  snap.shard_events = {0};
  // Fault-free runs keep the line compact: no "recovery" block at all.
  EXPECT_EQ(snap.ToJsonLine().find("\"recovery\""), std::string::npos);

  snap.recovery.crashes = 2;
  snap.recovery.resumes = 2;
  snap.recovery.checkpoint_fallbacks = 1;
  snap.recovery.write_faults = 3;
  snap.recovery.downtime_s = 0.75;
  const std::string line = snap.ToJsonLine();
  EXPECT_NE(line.find("\"recovery\""), std::string::npos);

  auto parsed = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->recovery.crashes, 2u);
  EXPECT_EQ(parsed->recovery.resumes, 2u);
  EXPECT_EQ(parsed->recovery.checkpoint_fallbacks, 1u);
  EXPECT_EQ(parsed->recovery.write_faults, 3u);
  EXPECT_NEAR(parsed->recovery.downtime_s, 0.75, 1e-9);
  EXPECT_TRUE(parsed->recovery.any());
}

TEST(RunTelemetryTest, RecoveryCountersFlowIntoSnapshots) {
  RunTelemetry telemetry;
  EXPECT_FALSE(telemetry.Snapshot().recovery.any());

  RecoveryCounters counters;
  counters.resumes = 1;
  counters.checkpoint_fallbacks = 2;
  telemetry.UpdateRecoveryCounters(counters);
  TelemetrySnapshot snap = telemetry.Snapshot();
  EXPECT_EQ(snap.recovery.resumes, 1u);
  EXPECT_EQ(snap.recovery.checkpoint_fallbacks, 2u);

  // The supervisor replaces totals wholesale; the latest update wins.
  counters.write_faults = 4;
  telemetry.UpdateRecoveryCounters(counters);
  EXPECT_EQ(telemetry.Snapshot().recovery.write_faults, 4u);
}

// ---------------------------------------------------------------------------
// TelemetrySnapshotter

TEST(TelemetrySnapshotterTest, EmitsMonotonicSnapshotsAndFinalOnStop) {
  RunTelemetry telemetry;
  std::mutex mu;
  std::vector<TelemetrySnapshot> seen;
  SnapshotterOptions options;
  options.period = Duration::FromMillis(5);
  options.on_snapshot = [&](const TelemetrySnapshot& snap) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(snap);
  };
  TelemetrySnapshotter snapshotter(&telemetry, options);
  snapshotter.Start();
  for (int i = 0; i < 10; ++i) {
    telemetry.AddDelivered(0, 100);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  snapshotter.Stop();

  ASSERT_GE(seen.size(), 1u);
  EXPECT_EQ(snapshotter.snapshots_emitted(), seen.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].seq, i);
    if (i > 0) {
      EXPECT_GE(seen[i].elapsed_s, seen[i - 1].elapsed_s);
      EXPECT_GE(seen[i].events, seen[i - 1].events);
    }
  }
  // Stop() emits a final snapshot, so the last record has everything.
  EXPECT_EQ(seen.back().events, 1000u);
  // Stop is idempotent and emits nothing further.
  snapshotter.Stop();
  EXPECT_EQ(snapshotter.snapshots_emitted(), seen.size());
}

TEST(TelemetrySnapshotterTest, StopWithoutStartStillEmitsFinalSnapshot) {
  RunTelemetry telemetry;
  telemetry.AddDelivered(0, 42);
  size_t emitted = 0;
  uint64_t final_events = 0;
  SnapshotterOptions options;
  options.on_snapshot = [&](const TelemetrySnapshot& snap) {
    ++emitted;
    final_events = snap.events;
  };
  TelemetrySnapshotter snapshotter(&telemetry, options);
  snapshotter.Stop();
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(final_events, 42u);
}

}  // namespace
}  // namespace graphtides
