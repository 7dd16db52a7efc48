#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/cudalite/api.h"

namespace gg::cudalite {
namespace {

class AsyncStreamTest : public ::testing::Test {
 protected:
  AsyncStreamTest() : rt_(platform_, /*pool_workers=*/2) {}

  /// Frequency-independent kernel estimate: simulated duration = seconds.
  [[nodiscard]] static WorkEstimate kernel_of(double seconds) {
    WorkEstimate est;
    est.units = 1.0;
    est.overhead_per_unit_s = seconds;
    return est;
  }

  [[nodiscard]] double transfer_seconds(double bytes) const {
    return platform_.bus().transfer_time(bytes).get();
  }

  sim::Platform platform_;
  Runtime rt_;
};

TEST_F(AsyncStreamTest, CopyAndKernelOnSeparateStreamsOverlap) {
  auto copy_stream = rt_.create_stream();
  auto kern_stream = rt_.create_stream();
  auto dev = rt_.alloc<double>(16);
  std::vector<double> host(16, 1.0);

  const double sim_bytes = 1.5e9;  // ~0.5 s on the default bus
  const Seconds t0 = platform_.now();
  rt_.memcpy_h2d_async(copy_stream, dev, host.data(), host.size(), sim_bytes);
  ASSERT_TRUE(rt_.launch_range(kern_stream, 16, kernel_of(1.0),
                               [](std::size_t, std::size_t) {}));
  rt_.device_synchronize();

  // Makespan is the max of the two legs, not the sum: the DMA engine ran
  // under the kernel.
  EXPECT_NEAR((platform_.now() - t0).get(), 1.0, 1e-9);
  const RuntimeStats stats = rt_.stats();
  EXPECT_NEAR(stats.overlapped_seconds, transfer_seconds(sim_bytes), 1e-9);
  EXPECT_EQ(stats.async_copies, 1u);
  rt_.free(dev);
}

TEST_F(AsyncStreamTest, SameStreamOpsSerializeInOrder) {
  auto stream = rt_.create_stream();
  auto dev = rt_.alloc<double>(16);
  std::vector<double> host(16, 1.0);

  const double sim_bytes = 1.5e9;
  const Seconds t0 = platform_.now();
  rt_.memcpy_h2d_async(stream, dev, host.data(), host.size(), sim_bytes);
  ASSERT_TRUE(
      rt_.launch_range(stream, 16, kernel_of(1.0), [](std::size_t, std::size_t) {}));
  rt_.synchronize(stream);

  // In-order stream: upload then kernel, end to end.
  EXPECT_NEAR((platform_.now() - t0).get(), transfer_seconds(sim_bytes) + 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(rt_.stats().overlapped_seconds, 0.0);
  rt_.free(dev);
}

TEST_F(AsyncStreamTest, StreamWaitEventDefersDependentWork) {
  auto producer = rt_.create_stream();
  auto consumer = rt_.create_stream();
  auto dev = rt_.alloc<double>(16);
  std::vector<double> host(16, 2.0);

  const double sim_bytes = 1.5e9;
  const Seconds t0 = platform_.now();
  rt_.memcpy_h2d_async(producer, dev, host.data(), host.size(), sim_bytes);
  const Event uploaded = rt_.record_event(producer);
  rt_.stream_wait_event(consumer, uploaded);

  Seconds kernel_done{-1.0};
  ASSERT_TRUE(rt_.launch_range(
      consumer, 16, kernel_of(0.25), [](std::size_t, std::size_t) {},
      [&] { kernel_done = platform_.now(); }));
  rt_.device_synchronize();

  // The dependent kernel could not start before the upload completed.
  EXPECT_NEAR((kernel_done - t0).get(), transfer_seconds(sim_bytes) + 0.25, 1e-9);
  rt_.free(dev);
}

TEST_F(AsyncStreamTest, WaitOnCompletedEventIsFree) {
  auto a = rt_.create_stream();
  auto b = rt_.create_stream();
  // Nothing in flight on `a`: its event is born complete and must not stall
  // `b` or advance time.
  const Event e = rt_.record_event(a);
  rt_.stream_wait_event(b, e);
  const Seconds t0 = platform_.now();
  rt_.synchronize(b);
  EXPECT_EQ(platform_.now(), t0);
}

TEST_F(AsyncStreamTest, AsyncCallbackFiresAtSimulatedCompletion) {
  auto stream = rt_.create_stream();
  auto dev = rt_.alloc<int>(8);
  std::vector<int> host(8, 3);
  const double sim_bytes = 6.0e8;
  Seconds done{-1.0};
  rt_.memcpy_h2d_async(stream, dev, host.data(), host.size(), sim_bytes,
                       [&] { done = platform_.now(); });
  rt_.synchronize(stream);
  EXPECT_NEAR(done.get(), transfer_seconds(sim_bytes), 1e-12);
  rt_.free(dev);
}

TEST_F(AsyncStreamTest, RealDataMovesEagerlyAtEnqueue) {
  auto stream = rt_.create_stream();
  auto dev = rt_.alloc<int>(100);
  std::vector<int> host(100);
  std::iota(host.begin(), host.end(), 0);

  // Before any simulated time passes the device buffer already holds the
  // data (host program order), and a D2H enqueue reads it back immediately.
  rt_.memcpy_h2d_async(stream, dev, host.data(), host.size(), 1.5e9);
  std::vector<int> back(100, -1);
  rt_.memcpy_d2h_async(stream, back.data(), dev, back.size(), 1.5e9);
  EXPECT_EQ(back, host);
  rt_.synchronize(stream);
  rt_.free(dev);
}

TEST_F(AsyncStreamTest, StatsCountExactBytesAndQueueDepth) {
  auto stream = rt_.create_stream();
  auto dev = rt_.alloc<double>(1000);
  std::vector<double> host(1000, 1.0);

  // No sim_bytes override: counters must reflect the real sizes, exactly.
  rt_.memcpy_h2d_async(stream, dev, host.data(), host.size());
  ASSERT_TRUE(
      rt_.launch_range(stream, 8, kernel_of(0.01), [](std::size_t, std::size_t) {}));
  std::vector<double> back(500);
  rt_.memcpy_d2h_async(stream, back.data(), dev, back.size());
  const RuntimeStats mid = rt_.stats();
  rt_.synchronize(stream);

  const RuntimeStats stats = rt_.stats();
  EXPECT_EQ(stats.bytes_h2d, std::uint64_t{8000});
  EXPECT_EQ(stats.bytes_d2h, std::uint64_t{4000});
  EXPECT_EQ(stats.async_copies, 2u);
  EXPECT_EQ(stats.h2d_copies, 1u);
  EXPECT_EQ(stats.d2h_copies, 1u);
  // Kernel + trailing copy were both pending behind the in-flight upload.
  EXPECT_GE(mid.peak_stream_depth, 2u);
  rt_.free(dev);
}

}  // namespace
}  // namespace gg::cudalite
