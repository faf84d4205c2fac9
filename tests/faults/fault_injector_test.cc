#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "generator/models/event_mix_model.h"
#include "generator/stream_generator.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

std::vector<Event> VertexStream(size_t n) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  return events;
}

TEST(FaultInjectorTest, NoFaultsIsIdentity) {
  const auto events = VertexStream(100);
  FaultReport report;
  const auto out = InjectFaults(events, FaultOptions{}, &report);
  EXPECT_EQ(out, events);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.duplicated, 0u);
  EXPECT_EQ(report.displaced, 0u);
}

TEST(FaultInjectorTest, DropsApproximatelyConfiguredFraction) {
  const auto events = VertexStream(10000);
  FaultOptions options;
  options.drop_probability = 0.1;
  options.seed = 3;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);
  EXPECT_NEAR(static_cast<double>(report.dropped) / 10000.0, 0.1, 0.02);
  EXPECT_EQ(out.size(), 10000u - report.dropped);
}

TEST(FaultInjectorTest, DuplicatesBackToBack) {
  const auto events = VertexStream(5000);
  FaultOptions options;
  options.duplicate_probability = 0.2;
  options.seed = 5;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);
  EXPECT_NEAR(static_cast<double>(report.duplicated) / 5000.0, 0.2, 0.03);
  EXPECT_EQ(out.size(), 5000u + report.duplicated);
  // Find at least one adjacent duplicate pair.
  bool found_pair = false;
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    if (out[i] == out[i + 1]) {
      found_pair = true;
      break;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(FaultInjectorTest, ReorderPreservesMultiset) {
  const auto events = VertexStream(2000);
  FaultOptions options;
  options.reorder_probability = 0.3;
  options.reorder_window = 10;
  options.seed = 7;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);
  EXPECT_EQ(out.size(), events.size());
  EXPECT_GT(report.displaced, 300u);
  // Same multiset of vertex ids.
  std::vector<VertexId> in_ids;
  std::vector<VertexId> out_ids;
  for (const Event& e : events) in_ids.push_back(e.vertex);
  for (const Event& e : out) out_ids.push_back(e.vertex);
  std::sort(in_ids.begin(), in_ids.end());
  std::sort(out_ids.begin(), out_ids.end());
  EXPECT_EQ(in_ids, out_ids);
  // And the order actually changed somewhere.
  bool changed = false;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!(out[i] == events[i])) {
      changed = true;
      break;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(FaultInjectorTest, DisplacementBounded) {
  const auto events = VertexStream(1000);
  FaultOptions options;
  options.reorder_probability = 0.5;
  options.reorder_window = 4;
  options.seed = 9;
  const auto out = InjectFaults(events, options, nullptr);
  // An event originally at position i (vertex id == i) may move at most
  // window positions forward, and can slip earlier only by the number of
  // displaced predecessors; bound loosely by the window both ways.
  for (size_t i = 0; i < out.size(); ++i) {
    const double displacement =
        std::abs(static_cast<double>(out[i].vertex) - static_cast<double>(i));
    EXPECT_LE(displacement, 8.0) << "at position " << i;
  }
}

TEST(FaultInjectorTest, DeterministicInSeed) {
  const auto events = VertexStream(1000);
  FaultOptions options;
  options.drop_probability = 0.05;
  options.duplicate_probability = 0.05;
  options.reorder_probability = 0.1;
  options.seed = 42;
  const auto a = InjectFaults(events, options, nullptr);
  const auto b = InjectFaults(events, options, nullptr);
  EXPECT_EQ(a, b);
  options.seed = 43;
  const auto c = InjectFaults(events, options, nullptr);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, ProtectsMarkersAndControls) {
  std::vector<Event> events;
  for (int i = 0; i < 500; ++i) {
    events.push_back(Event::AddVertex(static_cast<VertexId>(i)));
    events.push_back(Event::Marker(std::string("M").append(std::to_string(i))));
    events.push_back(Event::SetRate(2.0));
  }
  FaultOptions options;
  options.drop_probability = 0.5;
  options.duplicate_probability = 0.3;
  options.reorder_probability = 0.3;
  options.seed = 11;
  const auto out = InjectFaults(events, options, nullptr);
  size_t markers = 0;
  size_t controls = 0;
  for (const Event& e : out) {
    if (e.type == EventType::kMarker) ++markers;
    if (IsControl(e.type)) ++controls;
  }
  EXPECT_EQ(markers, 500u);
  EXPECT_EQ(controls, 500u);
}

TEST(FaultInjectorTest, UnprotectedModeFaultsEverything) {
  std::vector<Event> events;
  for (int i = 0; i < 2000; ++i) events.push_back(Event::Marker("M"));
  FaultOptions options;
  options.drop_probability = 0.5;
  options.protect_non_graph_events = false;
  options.seed = 13;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);
  EXPECT_GT(report.dropped, 800u);
  EXPECT_LT(out.size(), events.size());
}

TEST(FaultInjectorTest, FaultyStreamViolatesPreconditions) {
  // The §3.2 argument: loss/reorder produce inconsistent topologies that
  // fail precondition checks downstream.
  EventMixModelOptions model_options;
  model_options.ba = {200, 10, 3};
  EventMixModel model(model_options);
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 2000;
  gen_options.seed = 5;
  auto stream = StreamGenerator(&model, gen_options).Generate();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(ValidateStream(stream->events).valid());

  FaultOptions options;
  options.drop_probability = 0.05;
  options.seed = 17;
  const auto faulty = InjectFaults(stream->events, options, nullptr);
  const StreamValidationReport report = ValidateStream(faulty);
  EXPECT_FALSE(report.valid());
  EXPECT_GT(report.violations.size(), 10u);
}

TEST(FaultInjectorTest, CombinedFaultsReconcileExactly) {
  // Drop + duplicate + reorder on the same stream: the counters must
  // reconcile exactly with the output size, and the surviving multiset is
  // input minus drops plus duplicates.
  const auto events = VertexStream(5000);
  FaultOptions options;
  options.drop_probability = 0.05;
  options.duplicate_probability = 0.08;
  options.reorder_probability = 0.15;
  options.reorder_window = 12;
  options.seed = 31;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);

  EXPECT_EQ(report.input_events, 5000u);
  EXPECT_EQ(report.output_events, out.size());
  EXPECT_EQ(out.size(), 5000u - report.dropped + report.duplicated);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_GT(report.duplicated, 0u);
  EXPECT_GT(report.displaced, 0u);

  // Multiset check: every surviving id appears once, plus once more per
  // duplication; dropped ids are absent.
  std::map<VertexId, size_t> counts;
  for (const Event& e : out) ++counts[e.vertex];
  size_t singles = 0;
  size_t doubles = 0;
  for (const auto& [id, n] : counts) {
    ASSERT_LE(n, 2u) << "vertex " << id;
    if (n == 1) ++singles;
    if (n == 2) ++doubles;
  }
  EXPECT_EQ(doubles, report.duplicated);
  EXPECT_EQ(singles + doubles, 5000u - report.dropped);
}

TEST(FaultInjectorTest, ReorderWindowLargerThanStream) {
  const auto events = VertexStream(50);
  FaultOptions options;
  options.reorder_probability = 1.0;  // displace everything
  options.reorder_window = 1000;      // far beyond the stream length
  options.seed = 37;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);

  // Nothing is lost or duplicated, everything was displaced.
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(report.displaced, 50u);
  std::vector<VertexId> ids;
  for (const Event& e : out) ids.push_back(e.vertex);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);
}

TEST(FaultInjectorTest, UnprotectedCombinedFaultsOnMixedStream) {
  // protect_non_graph_events=false over a stream interleaving graph ops,
  // markers, and controls: non-graph events are degraded like the rest and
  // the counters still reconcile exactly.
  std::vector<Event> events;
  for (int i = 0; i < 1000; ++i) {
    events.push_back(Event::AddVertex(static_cast<VertexId>(i)));
    events.push_back(Event::Marker(std::string("M").append(std::to_string(i))));
    events.push_back(Event::SetRate(1.5));
  }
  FaultOptions options;
  options.drop_probability = 0.2;
  options.duplicate_probability = 0.1;
  options.reorder_probability = 0.1;
  options.reorder_window = 6;
  options.protect_non_graph_events = false;
  options.seed = 41;
  FaultReport report;
  const auto out = InjectFaults(events, options, &report);

  EXPECT_EQ(report.input_events, 3000u);
  EXPECT_EQ(report.output_events, out.size());
  EXPECT_EQ(out.size(), 3000u - report.dropped + report.duplicated);

  // Markers were not spared this time.
  size_t markers = 0;
  for (const Event& e : out) {
    if (e.type == EventType::kMarker) ++markers;
  }
  EXPECT_LT(markers, 1000u);
  EXPECT_GT(markers, 500u);  // ~20% drop rate, not a wipeout
}

TEST(ShuffleWindowTest, OnlyWindowAffected) {
  auto events = VertexStream(100);
  Rng rng(19);
  const auto out = ShuffleWindow(events, 20, 40, rng);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(out[i].vertex, i);
  for (size_t i = 40; i < 100; ++i) EXPECT_EQ(out[i].vertex, i);
  // The window retains the same ids (shuffled).
  std::vector<VertexId> window_ids;
  for (size_t i = 20; i < 40; ++i) window_ids.push_back(out[i].vertex);
  std::sort(window_ids.begin(), window_ids.end());
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(window_ids[i], 20 + i);
}

TEST(ShuffleWindowTest, DegenerateRanges) {
  auto events = VertexStream(10);
  Rng rng(23);
  // begin >= end, or out-of-range indices clamp gracefully.
  EXPECT_EQ(ShuffleWindow(events, 5, 5, rng).size(), 10u);
  EXPECT_EQ(ShuffleWindow(events, 8, 3, rng).size(), 10u);
  const auto out = ShuffleWindow(events, 5, 500, rng);
  EXPECT_EQ(out.size(), 10u);
}

}  // namespace
}  // namespace graphtides
