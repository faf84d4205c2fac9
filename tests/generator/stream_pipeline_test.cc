// Tests for the streaming generation path: consumer equivalence with the
// legacy in-memory path, byte-identical CSV output, the engine-thread
// hand-off (consumers run on the calling thread), and error propagation
// through EventConsumer.
#include "generator/stream_pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "generator/event_consumer.h"
#include "generator/model.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "replayer/event_batch.h"
#include "stream/event.h"

namespace graphtides {
namespace {

StreamGeneratorOptions TestOptions() {
  StreamGeneratorOptions options;
  options.seed = 99;
  options.rounds = 5000;
  options.marker_interval = 250;
  options.bootstrap_pause = Duration::FromMillis(10);
  return options;
}

/// Options whose stream crosses dozens of engine -> caller batch hand-offs.
StreamGeneratorOptions ManyBatchOptions() {
  StreamGeneratorOptions options = TestOptions();
  options.rounds = 60000;
  return options;
}

/// Adds one vertex per round until round `fail_at`; from then on it asks
/// for a marker, which the engine rejects as an error, or throws from the
/// hook when `throws` is set. With phase markers off the stream holds
/// exactly `fail_at - 1` events before the failure.
class FailingModel final : public GeneratorModel {
 public:
  FailingModel(size_t fail_at, bool throws)
      : fail_at_(fail_at), throws_(throws) {}

  std::string Name() const override { return "failing"; }
  Status BootstrapGraph(GraphBuilder&, GeneratorContext&) override {
    return Status::OK();
  }
  EventType NextEventType(GeneratorContext& ctx) override {
    if (ctx.round() < fail_at_) return EventType::kAddVertex;
    if (throws_) throw std::runtime_error("model hook failed");
    return EventType::kMarker;
  }

 private:
  size_t fail_at_;
  bool throws_;
};

/// Records the vertex of every event, the threads Consume and Finish ran
/// on, and how often Finish was called.
class RecordingConsumer final : public EventConsumer {
 public:
  Status Consume(Event&& event) override {
    vertices.push_back(event.vertex);
    if (std::this_thread::get_id() != caller) ++off_thread_calls;
    return Status::OK();
  }
  Status Finish() override {
    ++finish_calls;
    if (std::this_thread::get_id() != caller) ++off_thread_calls;
    return Status::OK();
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<VertexId> vertices;
  size_t off_thread_calls = 0;
  size_t finish_calls = 0;
};

/// Reference rendering of the legacy in-memory path: one ToCsvLine string
/// per event, '\n'-joined — what WriteStreamFile/the seed serializer
/// produced.
std::string RenderLegacy(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    out += e.ToCsvLine();
    out.push_back('\n');
  }
  return out;
}

TEST(StreamPipelineTest, CollectingConsumerMatchesLegacyGenerate) {
  SocialNetworkModel model_a;
  auto legacy = StreamGenerator(&model_a, TestOptions()).Generate();
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  SocialNetworkModel model_b;
  std::vector<Event> streamed;
  CollectingConsumer consumer(&streamed);
  auto summary = StreamGenerator(&model_b, TestOptions()).GenerateTo(consumer);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  ASSERT_EQ(legacy->events.size(), streamed.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(legacy->events[i], streamed[i]) << "event " << i;
  }
  EXPECT_EQ(summary->total_events, streamed.size());
  EXPECT_EQ(summary->bootstrap_events, legacy->bootstrap_events);
  EXPECT_EQ(summary->evolution_events, legacy->evolution_events);
  EXPECT_EQ(summary->skipped_rounds, legacy->skipped_rounds);
  EXPECT_EQ(summary->final_vertices, legacy->final_vertices);
  EXPECT_EQ(summary->final_edges, legacy->final_edges);
}

TEST(StreamPipelineTest, PipelinedWriterByteIdenticalToLegacyPath) {
  // Same seed, two engines: the in-memory path rendered with per-event
  // ToCsvLine vs GenerateTo into the CSV writer on a memory FILE, across
  // dozens of batch hand-offs and writer flushes. Must match to the byte.
  SocialNetworkModel model_a;
  auto legacy = StreamGenerator(&model_a, ManyBatchOptions()).Generate();
  ASSERT_TRUE(legacy.ok());
  const std::string expected = RenderLegacy(legacy->events);

  char* data = nullptr;
  size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  ASSERT_NE(mem, nullptr);
  {
    SocialNetworkModel model_b;
    PipelinedWriterConsumer writer(mem);
    auto summary =
        StreamGenerator(&model_b, ManyBatchOptions()).GenerateTo(writer);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(writer.events_written(), summary->total_events);
    EXPECT_EQ(writer.bytes_written(), expected.size());
  }
  std::fclose(mem);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(std::string_view(data, size), expected);
  std::free(data);
}

TEST(StreamPipelineTest, PipelinedWriterByteIdenticalAcrossModels) {
  // The event-mix model exercises removals and quoted JSON-ish payloads;
  // blockchain exercises hub-biased topologies. Each stream crosses over
  // 25 batch hand-offs.
  StreamGeneratorOptions options;
  options.seed = 7;
  options.rounds = 25000;
  options.marker_interval = 100;
  // A 1000-vertex bootstrap instead of Table 3's 10000 x 50 edges keeps
  // the stream at about 31k events instead of 525k.
  EventMixModelOptions mix;
  mix.ba = {1000, 20, 5};

  {
    EventMixModel model_a{mix};
    auto legacy = StreamGenerator(&model_a, options).Generate();
    ASSERT_TRUE(legacy.ok());
    EXPECT_GE(legacy->events.size(), 25 * BatchHandoff::kBatchEvents);
    size_t removals = 0;
    size_t quoted = 0;
    for (const Event& e : legacy->events) {
      removals += IsRemoveOp(e.type) ? 1 : 0;
      quoted += e.ToCsvLine().find('"') != std::string::npos ? 1 : 0;
    }
    EXPECT_GT(removals, 0u);
    EXPECT_GT(quoted, 0u);
    char* data = nullptr;
    size_t size = 0;
    FILE* mem = open_memstream(&data, &size);
    EventMixModel model_b{mix};
    PipelinedWriterConsumer writer(mem);
    auto summary = StreamGenerator(&model_b, options).GenerateTo(writer);
    ASSERT_TRUE(summary.ok());
    std::fclose(mem);
    EXPECT_EQ(std::string_view(data, size), RenderLegacy(legacy->events));
    std::free(data);
  }
  {
    BlockchainModel model_a;
    auto legacy = StreamGenerator(&model_a, options).Generate();
    ASSERT_TRUE(legacy.ok());
    char* data = nullptr;
    size_t size = 0;
    FILE* mem = open_memstream(&data, &size);
    BlockchainModel model_b;
    PipelinedWriterConsumer writer(mem);
    auto summary = StreamGenerator(&model_b, options).GenerateTo(writer);
    ASSERT_TRUE(summary.ok());
    std::fclose(mem);
    EXPECT_EQ(std::string_view(data, size), RenderLegacy(legacy->events));
    std::free(data);
  }
}

TEST(StreamPipelineTest, ConsumerErrorAbortsGeneration) {
  SocialNetworkModel model;
  size_t seen = 0;
  CallbackConsumer consumer([&seen](Event&&) {
    if (++seen > 100) return Status::IoError("downstream full");
    return Status::OK();
  });
  auto summary = StreamGenerator(&model, TestOptions()).GenerateTo(consumer);
  ASSERT_FALSE(summary.ok());
  EXPECT_TRUE(summary.status().IsIoError()) << summary.status().ToString();
  // Generation stopped at the failure, not at stream end.
  EXPECT_EQ(seen, 101u);
}

TEST(StreamPipelineTest, ConsumerRunsOnCallingThread) {
  SocialNetworkModel model;
  RecordingConsumer consumer;
  auto summary =
      StreamGenerator(&model, ManyBatchOptions()).GenerateTo(consumer);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(consumer.vertices.size(), summary->total_events);
  EXPECT_EQ(consumer.finish_calls, 1u);
  EXPECT_EQ(consumer.off_thread_calls, 0u);
}

TEST(StreamPipelineTest, EngineErrorDeliversEarlierEventsWithoutFinish) {
  // 2500 events: two full batches and a partial one precede the error.
  constexpr size_t kEvents = 2500;
  FailingModel model(kEvents + 1, /*throws=*/false);
  StreamGeneratorOptions options;
  options.rounds = 10000;
  options.emit_phase_markers = false;
  RecordingConsumer consumer;
  auto summary = StreamGenerator(&model, options).GenerateTo(consumer);
  ASSERT_FALSE(summary.ok());
  EXPECT_TRUE(summary.status().IsInvalidArgument())
      << summary.status().ToString();
  ASSERT_EQ(consumer.vertices.size(), kEvents);
  for (size_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(consumer.vertices[i], i) << "event " << i;
  }
  EXPECT_EQ(consumer.finish_calls, 0u);
  EXPECT_EQ(consumer.off_thread_calls, 0u);
}

TEST(StreamPipelineTest, ModelExceptionReachesCaller) {
  constexpr size_t kEvents = 1500;
  FailingModel model(kEvents + 1, /*throws=*/true);
  StreamGeneratorOptions options;
  options.rounds = 10000;
  options.emit_phase_markers = false;
  RecordingConsumer consumer;
  StreamGenerator generator(&model, options);
  EXPECT_THROW((void)generator.GenerateTo(consumer), std::runtime_error);
  EXPECT_EQ(consumer.vertices.size(), kEvents);
  EXPECT_EQ(consumer.finish_calls, 0u);
}

TEST(StreamPipelineTest, AppendEventLineMatchesToCsvLine) {
  const std::vector<Event> events = {
      Event::AddVertex(42, "{\"user\":\"u42\",\"joined\":7}"),
      Event::AddVertex(7, ""),
      Event::RemoveVertex(42),
      Event::AddEdge(1, 2, "with,comma"),
      Event::UpdateEdge(1, 2, "with\"quote"),
      Event::RemoveEdge(1, 2),
      Event::Marker("MARK_17"),
      Event::SetRate(2.5),
      Event::Pause(Duration::FromMillis(1500)),
  };
  for (const Event& e : events) {
    std::string appended;
    AppendEventLine(e, &appended);
    EXPECT_EQ(appended, e.ToCsvLine() + "\n");
  }
}

TEST(StreamPipelineTest, WriterReportsIoErrorFromClosedFile) {
  // A FILE* opened read-only rejects writes; the error must surface from
  // GenerateTo rather than being swallowed.
  FILE* readonly = std::fopen("/dev/null", "r");
  ASSERT_NE(readonly, nullptr);
  SocialNetworkModel model;
  StreamGeneratorOptions options;
  options.seed = 5;
  options.rounds = 20000;
  {
    PipelinedWriterConsumer writer(readonly);
    auto summary = StreamGenerator(&model, options).GenerateTo(writer);
    EXPECT_FALSE(summary.ok());
  }
  std::fclose(readonly);
}

}  // namespace
}  // namespace graphtides
