#include "harness/process_monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace graphtides {
namespace {

/// Spins for roughly `ms` of wall time, keeping one core busy.
void BurnCpu(int ms) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < end) {
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
}

TEST(ProcessMonitorTest, SamplesSelf) {
  ProcessMonitor monitor = ProcessMonitor::Self();
  auto sample = monitor.Sample();
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_GT(sample->rss_bytes, 1024u * 1024u);  // >= 1 MiB resident
  EXPECT_GE(sample->num_threads, 1u);
  EXPECT_EQ(sample->cpu_percent, 0.0);  // first sample has no baseline
}

TEST(ProcessMonitorTest, CpuUtilizationReflectsLoad) {
  ProcessMonitor monitor = ProcessMonitor::Self();
  ASSERT_TRUE(monitor.Sample().ok());
  // An idle window first: this process sleeps, so whatever utilization the
  // monitor reports is noise. The property under test is that a busy
  // window reads clearly above that — an absolute bound would depend on
  // how many sibling test processes share the cores (ctest -j on a small
  // host can cap one spinner well under a full core's worth).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto idle = monitor.Sample();
  ASSERT_TRUE(idle.ok());
  BurnCpu(200);
  auto busy = monitor.Sample();
  ASSERT_TRUE(busy.ok());
  EXPECT_GT(busy->cpu_percent, idle->cpu_percent + 10.0);
}

TEST(ProcessMonitorTest, CpuTicksMonotone) {
  ProcessMonitor monitor = ProcessMonitor::Self();
  auto a = monitor.Sample();
  ASSERT_TRUE(a.ok());
  BurnCpu(50);
  auto b = monitor.Sample();
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->cpu_ticks, a->cpu_ticks);
  EXPECT_GT(b->time, a->time);
}

TEST(ProcessMonitorTest, MissingProcessIsIoError) {
  // PID 0 never has a /proc entry accessible this way; use an absurd pid.
  ProcessMonitor monitor(999999999);
  auto sample = monitor.Sample();
  ASSERT_FALSE(sample.ok());
  EXPECT_TRUE(sample.status().IsIoError());
}

}  // namespace
}  // namespace graphtides
