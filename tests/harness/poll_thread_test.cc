#include "harness/poll_thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>

namespace graphtides {
namespace {

constexpr auto kPatience = std::chrono::seconds(10);

TEST(PollThreadTest, StopIsPromptUnderALongPeriod) {
  PollThread poller;
  std::atomic<int> polls{0};
  poller.Start(Duration::FromSeconds(3600.0), [&] {
    ++polls;
    return false;
  });
  const auto start = std::chrono::steady_clock::now();
  poller.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_EQ(polls.load(), 0);  // the first poll is one period away
}

TEST(PollThreadTest, NoPollRunsAfterStopReturns) {
  PollThread poller;
  std::atomic<int> polls{0};
  std::promise<void> third;
  // The poll holds one reference to `alive`; the thread releases it when
  // its loop ends, which must happen before Stop returns.
  auto alive = std::make_shared<int>(0);
  poller.Start(Duration::FromMillis(1), [&, alive] {
    if (++polls == 3) third.set_value();
    return false;
  });
  ASSERT_EQ(third.get_future().wait_for(kPatience), std::future_status::ready);
  poller.Stop();
  EXPECT_EQ(alive.use_count(), 1);
  const int after_stop = polls.load();
  EXPECT_GE(after_stop, 3);
  poller.Stop();  // idempotent
  EXPECT_EQ(polls.load(), after_stop);
}

TEST(PollThreadTest, EndsWhenThePollReturnsTrue) {
  PollThread poller;
  std::atomic<int> polls{0};
  std::promise<void> done;
  poller.Start(Duration::FromMillis(1), [&] {
    if (++polls < 3) return false;
    done.set_value();  // a fourth call would throw
    return true;
  });
  ASSERT_EQ(done.get_future().wait_for(kPatience), std::future_status::ready);
  poller.Stop();  // joins the finished thread
  EXPECT_EQ(polls.load(), 3);
}

TEST(PollThreadTest, RestartsAfterStop) {
  PollThread poller;
  poller.Stop();  // a no-op before the first Start
  for (int run = 0; run < 3; ++run) {
    std::promise<void> polled;
    poller.Start(Duration::FromMillis(1), [&] {
      polled.set_value();
      return true;
    });
    ASSERT_EQ(polled.get_future().wait_for(kPatience),
              std::future_status::ready)
        << "run " << run;
    poller.Stop();
  }
}

TEST(PollThreadTest, StartStopsARunningThreadFirst) {
  PollThread poller;
  std::atomic<int> first_polls{0};
  poller.Start(Duration::FromSeconds(3600.0), [&] {
    ++first_polls;
    return false;
  });
  std::promise<void> polled;
  poller.Start(Duration::FromMillis(1), [&] {
    polled.set_value();
    return true;
  });
  ASSERT_EQ(polled.get_future().wait_for(kPatience), std::future_status::ready);
  poller.Stop();
  EXPECT_EQ(first_polls.load(), 0);
}

}  // namespace
}  // namespace graphtides
