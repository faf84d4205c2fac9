// Bounded-memory smoke test for the streaming generation path.
//
// Streams a multi-million-event run through GenerateTo's engine thread and
// the buffered CSV writer and asserts peak RSS growth stays under a fixed
// bound. The event mix is
// balanced (creates ~ removes) so the topology shadow hovers near its
// bootstrap size and the only thing that scales with --rounds is the
// stream itself — which the pipeline never materializes. Measured on the
// reference host: ~6 MB RSS delta at 1M rounds and ~6 MB at 10M rounds,
// while the in-memory path needs ~100 MB per million events just for the
// event vector.
#include <cstdio>

#include <gtest/gtest.h>

#include "generator/models/event_mix_model.h"
#include "generator/stream_generator.h"
#include "generator/stream_pipeline.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GT_ASAN_ENABLED 1
#endif
#if __has_feature(thread_sanitizer)
#define GT_TSAN_ENABLED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define GT_ASAN_ENABLED 1
#endif
#if defined(__SANITIZE_THREAD__)
#define GT_TSAN_ENABLED 1
#endif

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace graphtides {
namespace {

#if defined(__linux__)
long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KB on Linux
}
#endif

TEST(RssSmokeTest, StreamingRunHoldsBoundedRss) {
#if !defined(__linux__)
  GTEST_SKIP() << "ru_maxrss semantics are Linux-specific";
#elif defined(GT_ASAN_ENABLED) || defined(GT_TSAN_ENABLED)
  GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#else
  const long before_kb = MaxRssKb();

  // Balanced mix: vertex/edge creates are matched by removes, so the
  // topology stays near the bootstrap size for the whole run.
  EventMixModelOptions model_options;
  model_options.ba = {2000, 50, 10};
  model_options.mix = {/*create_vertex=*/0.05, /*remove_vertex=*/0.05,
                       /*update_vertex=*/0.55, /*create_edge=*/0.175,
                       /*remove_edge=*/0.175, /*update_edge=*/0.0};
  EventMixModel model(model_options);

  StreamGeneratorOptions options;
  options.seed = 11;
  options.rounds = 2'000'000;
  options.marker_interval = 10'000;
  StreamGenerator generator(&model, options);

  FILE* devnull = std::fopen("/dev/null", "w");
  ASSERT_NE(devnull, nullptr);
  size_t total_events = 0;
  {
    PipelinedWriterConsumer writer(devnull);
    auto summary = generator.GenerateTo(writer);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    total_events = summary->total_events;
  }
  std::fclose(devnull);
  ASSERT_GT(total_events, options.rounds);

  // 64 MB is an order of magnitude above the measured delta but far below
  // what materializing 2M+ events in memory would require (~200 MB for the
  // event vector alone), so a regression back to buffering the stream
  // trips this immediately.
  const long delta_kb = MaxRssKb() - before_kb;
  EXPECT_LT(delta_kb, 64L * 1024)
      << "streaming " << total_events << " events grew peak RSS by "
      << delta_kb << " KB; the pipeline should hold a fixed footprint";
#endif
}

}  // namespace
}  // namespace graphtides
