#include "src/cudalite/api.h"

#include <gtest/gtest.h>

#include <numeric>

namespace gg::cudalite {
namespace {

using namespace gg::literals;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : rt_(platform_, /*pool_workers=*/2) {}

  sim::Platform platform_;
  Runtime rt_;
};

TEST_F(RuntimeTest, AllocTracksStats) {
  auto buf = rt_.alloc<double>(100);
  EXPECT_TRUE(buf.valid());
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(rt_.stats().device_bytes_in_use, 800u);
  rt_.free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(rt_.stats().device_bytes_in_use, 0u);
  EXPECT_EQ(rt_.stats().device_bytes_peak, 800u);
}

TEST_F(RuntimeTest, ModelOnlyAllocKeepsAccountingAndDistinctHandles) {
  rt_.set_compute_mode(ComputeMode::kModelOnly);
  auto a = rt_.alloc<double>(1 << 20);
  auto b = rt_.alloc<double>(1 << 20);
  auto c = rt_.alloc<char>(3);
  EXPECT_TRUE(a.valid() && b.valid() && c.valid());
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(double), 0u);
  EXPECT_EQ(rt_.stats().device_bytes_in_use, 2u * 8u * (1u << 20) + 3u);
  // Transfers charge simulated time without touching the (absent) storage.
  std::vector<double> host(1 << 20, 1.0);
  rt_.memcpy_h2d(a, host.data(), host.size());
  rt_.free(b);
  rt_.free(a);
  rt_.free(c);
  EXPECT_EQ(rt_.stats().device_bytes_in_use, 0u);
  EXPECT_EQ(rt_.stats().device_bytes_peak, 2u * 8u * (1u << 20) + 3u);
}

TEST_F(RuntimeTest, ZeroAllocThrows) {
  EXPECT_THROW(rt_.alloc<int>(0), std::invalid_argument);
}

TEST_F(RuntimeTest, FreeUnknownPointerThrows) {
  DeviceBuffer<int> fake;
  EXPECT_NO_THROW(rt_.free(fake));  // null is a no-op, like cudaFree(0)
  auto buf = rt_.alloc<int>(4);
  auto copy = buf;
  rt_.free(buf);
  EXPECT_THROW(rt_.free(copy), std::invalid_argument);
}

TEST_F(RuntimeTest, MemcpyRoundTripPreservesData) {
  std::vector<int> host(1000);
  std::iota(host.begin(), host.end(), 0);
  auto dev = rt_.alloc<int>(1000);
  rt_.memcpy_h2d(dev, host.data(), host.size());
  std::vector<int> back;
  rt_.memcpy_d2h(back, dev);
  EXPECT_EQ(back, host);
}

TEST_F(RuntimeTest, MemcpyChargesBusTime) {
  std::vector<double> host(1 << 20);  // 8 MiB
  auto dev = rt_.alloc<double>(host.size());
  const Seconds before = platform_.now();
  rt_.memcpy_h2d(dev, host.data(), host.size());
  const double bytes = static_cast<double>(host.size() * sizeof(double));
  const Seconds expected = platform_.bus().transfer_time(bytes);
  EXPECT_NEAR((platform_.now() - before).get(), expected.get(), 1e-12);
  EXPECT_EQ(rt_.stats().h2d_copies, 1u);
  EXPECT_EQ(rt_.stats().bytes_h2d, host.size() * sizeof(double));
}

TEST_F(RuntimeTest, MemcpyOutOfRangeThrows) {
  auto dev = rt_.alloc<int>(10);
  std::vector<int> host(11);
  EXPECT_THROW(rt_.memcpy_h2d(dev, host.data(), host.size()), std::out_of_range);
}

TEST_F(RuntimeTest, LaunchExecutesEveryThread) {
  // A 64-thread kernel: every thread index runs once, and the launch counts
  // as one kernel.
  auto stream = rt_.create_stream();
  std::vector<std::atomic<int>> hits(64);
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1e-3;
  rt_.launch_range(stream, hits.size(), est, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  rt_.synchronize(stream);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(rt_.stats().kernels_launched, 1u);
}

TEST_F(RuntimeTest, LaunchRangeCoversAllIndices) {
  auto stream = rt_.create_stream();
  std::vector<std::atomic<int>> hits(1000);
  WorkEstimate est;
  est.units = 1000.0;
  est.overhead_per_unit_s = 1e-6;
  rt_.launch_range(stream, 1000, est, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  rt_.synchronize(stream);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(RuntimeTest, SimulatedDurationFollowsEstimateNotHostSpeed) {
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.units = 100.0;
  est.overhead_per_unit_s = 0.01;  // 1 simulated second
  const Seconds before = platform_.now();
  rt_.launch_range(stream, 10, est, [](std::size_t, std::size_t) {});
  rt_.synchronize(stream);
  EXPECT_NEAR((platform_.now() - before).get(), 1.0, 1e-9);
}

TEST_F(RuntimeTest, EmptyLaunchThrows) {
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.overhead_per_unit_s = 1e-3;
  EXPECT_THROW(rt_.launch_range(stream, 0, est, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST_F(RuntimeTest, HostSpinsDuringSynchronize) {
  // The synchronous stack: while waiting on the GPU, the CPU reads 100 %
  // utilization (Section VII-A).
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 2.0;  // 2 simulated seconds
  rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  rt_.synchronize(stream);
  const auto counters = platform_.cpu().counters();
  EXPECT_NEAR(counters.spin_integral, 2.0, 1e-9);
  EXPECT_NEAR(counters.util_integral, 2.0, 1e-9);  // both cores pegged
}

TEST_F(RuntimeTest, AsyncModeDoesNotSpin) {
  sim::Platform p2;
  Runtime rt2(p2, 2, /*sync_spin=*/false);
  auto stream = rt2.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 2.0;
  rt2.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  rt2.synchronize(stream);
  EXPECT_NEAR(p2.cpu().counters().spin_integral, 0.0, 1e-12);
}

TEST_F(RuntimeTest, HostSubmitRunsFnAndSimulatesDuration) {
  bool ran = false;
  sim::CpuWork work;
  work.units = 1.0;
  work.overhead_per_unit = 3_s;
  bool completed = false;
  rt_.host_submit(work, [&] { ran = true; }, [&] { completed = true; });
  EXPECT_TRUE(ran);  // real computation happens immediately
  EXPECT_FALSE(completed);
  rt_.device_synchronize();
  EXPECT_TRUE(completed);
  EXPECT_NEAR(platform_.now().get(), 3.0, 1e-9);
}

TEST_F(RuntimeTest, ConcurrentGpuAndCpuWorkOverlap) {
  // GPU 2 s + CPU 3 s submitted together must finish at max, not sum.
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 2.0;
  rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  sim::CpuWork work;
  work.units = 1.0;
  work.overhead_per_unit = 3_s;
  rt_.host_submit(work, [] {});
  rt_.device_synchronize();
  EXPECT_NEAR(platform_.now().get(), 3.0, 1e-9);
}

TEST_F(RuntimeTest, EventRecordsCompletionTime) {
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1.5;
  rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  Event ev = rt_.record_event(stream);
  EXPECT_FALSE(ev.complete());
  EXPECT_THROW((void)ev.time(), std::logic_error);
  rt_.synchronize(stream);
  EXPECT_TRUE(ev.complete());
  EXPECT_NEAR(ev.time().get(), 1.5, 1e-6);
}

TEST_F(RuntimeTest, EventOnIdleStreamCompletesImmediately) {
  auto stream = rt_.create_stream();
  Event ev = rt_.record_event(stream);
  EXPECT_TRUE(ev.complete());
  EXPECT_EQ(ev.time(), platform_.now());
}

TEST_F(RuntimeTest, StreamOutstandingCount) {
  auto stream = rt_.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1.0;
  rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  EXPECT_EQ(stream.outstanding(), 2u);
  rt_.synchronize(stream);
  EXPECT_EQ(stream.outstanding(), 0u);
}

}  // namespace
}  // namespace gg::cudalite
