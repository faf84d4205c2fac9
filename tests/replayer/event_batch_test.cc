#include "replayer/event_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>

namespace graphtides {
namespace {

constexpr size_t kBatch = BatchHandoff::kBatchEvents;
constexpr size_t kDepth = BatchHandoff::kDepth;

std::string PayloadFor(uint64_t i) { return std::to_string(i); }

/// Producer side: event `i` is vertex i with sequence number i.
bool AddNth(BatchHandoff& handoff, uint64_t i) {
  return handoff.Add(EventType::kAddVertex, i, EdgeId{}, PayloadFor(i), 1.0,
                     Duration{}, i);
}

/// Consumer side: expects `batch` to hold events [first, first + count).
void ExpectEvents(const EventBatch& batch, uint64_t first, size_t count) {
  ASSERT_EQ(batch.records.size(), count);
  for (size_t k = 0; k < count; ++k) {
    const EventRecord& r = batch.records[k];
    ASSERT_EQ(r.seq, first + k);
    ASSERT_EQ(r.vertex, first + k);
    ASSERT_EQ(batch.PayloadOf(r), PayloadFor(first + k));
  }
}

TEST(BatchHandoffTest, DeliversTheStreamInOrderAcrossManyHandOvers) {
  constexpr uint64_t kEvents = 10 * kDepth * kBatch + 37;
  BatchHandoff handoff;
  bool all_added = true;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kEvents && all_added; ++i) {
      all_added = AddNth(handoff, i);
    }
    handoff.Close();
  });
  uint64_t next = 0;
  while (std::optional<EventBatch> batch = handoff.Next()) {
    const size_t count = std::min<uint64_t>(kBatch, kEvents - next);
    ExpectEvents(*batch, next, count);
    next += count;
    handoff.Recycle(std::move(*batch));
  }
  producer.join();
  EXPECT_TRUE(all_added);
  EXPECT_EQ(next, kEvents);
  EXPECT_TRUE(handoff.status().ok());
}

TEST(BatchHandoffTest, FlushHandsOverAPartialBatch) {
  BatchHandoff handoff;
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(AddNth(handoff, i));
  ASSERT_TRUE(handoff.Flush());
  std::optional<EventBatch> batch = handoff.Next();
  ASSERT_TRUE(batch.has_value());
  ExpectEvents(*batch, 0, 3);
  handoff.Recycle(std::move(*batch));
  // Nothing pending: a second Flush hands over no empty batch.
  ASSERT_TRUE(handoff.Flush());
  handoff.Close();
  EXPECT_FALSE(handoff.Next().has_value());
}

TEST(BatchHandoffTest, CloseWithAnErrorDeliversEveryEarlierBatchFirst) {
  BatchHandoff handoff;
  constexpr uint64_t kEvents = 2 * kBatch + kBatch / 2;
  for (uint64_t i = 0; i < kEvents; ++i) ASSERT_TRUE(AddNth(handoff, i));
  handoff.Close(Status::IoError("disk gone"));
  for (uint64_t first = 0; first < kEvents; first += kBatch) {
    std::optional<EventBatch> batch = handoff.Next();
    ASSERT_TRUE(batch.has_value());
    ExpectEvents(*batch, first, std::min<uint64_t>(kBatch, kEvents - first));
    handoff.Recycle(std::move(*batch));
  }
  EXPECT_FALSE(handoff.Next().has_value());
  EXPECT_TRUE(handoff.status().IsIoError());
  EXPECT_EQ(handoff.status().message(), "disk gone");
}

TEST(BatchHandoffTest, StopReleasesABlockedProducerAndKeepsItsBatch) {
  // kDepth batches fill the queue; the hand-over of batch kDepth + 1 waits
  // for a pop that never comes. Stop() fails that hand-over, whether it
  // lands before or during the wait.
  constexpr uint64_t kEvents = (kDepth + 1) * kBatch;
  BatchHandoff handoff;
  std::atomic<uint64_t> added{0};
  std::optional<uint64_t> refused_at;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kEvents; ++i) {
      if (!AddNth(handoff, i)) {
        refused_at = i;
        return;
      }
      added.store(i + 1, std::memory_order_release);
    }
  });
  while (added.load(std::memory_order_acquire) < kEvents - 1) {
    std::this_thread::yield();
  }
  handoff.Stop();
  producer.join();
  ASSERT_EQ(refused_at, kEvents - 1);

  // The queued batches stay poppable, and the refused batch stays with the
  // producer, whole: once there is room, Close hands it over.
  for (uint64_t b = 0; b < kDepth; ++b) {
    std::optional<EventBatch> batch = handoff.Next();
    ASSERT_TRUE(batch.has_value());
    ExpectEvents(*batch, b * kBatch, kBatch);
    handoff.Recycle(std::move(*batch));
  }
  handoff.Close();
  std::optional<EventBatch> refused = handoff.Next();
  ASSERT_TRUE(refused.has_value());
  ExpectEvents(*refused, kDepth * kBatch, kBatch);
  handoff.Recycle(std::move(*refused));
  EXPECT_FALSE(handoff.Next().has_value());
}

TEST(BatchHandoffTest, TheSameBatchesCirculateWithoutNewAllocation) {
  // Every hand-over rotates the recycle queue, so the consumer sees each
  // preallocated batch in turn, and only those: no records vector or
  // arena is ever allocated or grown after construction.
  BatchHandoff handoff;
  std::set<const EventRecord*> records_seen;
  std::set<const char*> arenas_seen;
  uint64_t next = 0;
  for (size_t round = 0; round < 5 * (kDepth + 2); ++round) {
    for (size_t k = 0; k < kBatch; ++k) {
      ASSERT_TRUE(AddNth(handoff, next + k));
    }
    std::optional<EventBatch> batch = handoff.Next();
    ASSERT_TRUE(batch.has_value());
    ExpectEvents(*batch, next, kBatch);
    EXPECT_EQ(batch->records.capacity(), kBatch);
    records_seen.insert(batch->records.data());
    arenas_seen.insert(batch->arena.data());
    next += kBatch;
    handoff.Recycle(std::move(*batch));
  }
  EXPECT_EQ(records_seen.size(), kDepth + 2);
  EXPECT_EQ(arenas_seen.size(), kDepth + 2);
}

}  // namespace
}  // namespace graphtides
