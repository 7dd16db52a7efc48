// Failure injection: errors inside kernels and misuse of the runtime must
// surface as exceptions and leave the stack usable.
#include <gtest/gtest.h>

#include "src/cudalite/api.h"

namespace gg::cudalite {
namespace {

using namespace gg::literals;

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : rt_(platform_, 2) {}

  WorkEstimate small_estimate() {
    WorkEstimate est;
    est.units = 1.0;
    est.overhead_per_unit_s = 1e-3;
    return est;
  }

  sim::Platform platform_;
  Runtime rt_;
};

TEST_F(FailureTest, KernelExceptionPropagatesFromLaunch) {
  auto stream = rt_.create_stream();
  EXPECT_THROW(rt_.launch_range(stream, 100, small_estimate(),
                                [](std::size_t b, std::size_t) {
                                  if (b == 0) throw std::runtime_error("kernel bug");
                                }),
               std::runtime_error);
}

TEST_F(FailureTest, RuntimeUsableAfterKernelException) {
  auto stream = rt_.create_stream();
  try {
    rt_.launch_range(stream, 100, small_estimate(),
                     [](std::size_t, std::size_t) { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error&) {
  }
  // NOTE: the failed launch was still submitted to the simulated device
  // (real CUDA would poison the context; we keep going).  Drain it.
  rt_.synchronize(stream);
  int sum = 0;
  rt_.launch_range(stream, 10, small_estimate(),
                   [&](std::size_t b, std::size_t e) { sum += static_cast<int>(e - b); });
  rt_.synchronize(stream);
  EXPECT_EQ(sum, 10);
}

TEST_F(FailureTest, HostTaskExceptionPropagates) {
  sim::CpuWork w;
  w.units = 1.0;
  w.overhead_per_unit = 1_ms;
  EXPECT_THROW(rt_.host_submit(w, [] { throw std::logic_error("host bug"); }),
               std::logic_error);
}

TEST_F(FailureTest, WaitWithNothingPendingThrowsInsteadOfHanging) {
  // wait_until with an unsatisfiable predicate and an empty queue must not
  // deadlock: it reports the logic error.
  EXPECT_THROW(rt_.wait_until([] { return false; }), std::logic_error);
}

TEST_F(FailureTest, SetDeviceOutOfRangeThrows) {
  EXPECT_EQ(rt_.device_count(), 1u);
  EXPECT_THROW(rt_.set_device(1), std::out_of_range);
  EXPECT_EQ(rt_.current_device(), 0u);
}

TEST_F(FailureTest, UseAfterFreeIsCaughtByRangeCheck) {
  auto buf = rt_.alloc<int>(8);
  rt_.free(buf);
  std::vector<int> host(8, 0);
  // Invalidated handle.
  EXPECT_THROW(rt_.memcpy_h2d(buf, host.data(), host.size()), std::out_of_range);
}

TEST_F(FailureTest, SpinStateRestoredAfterWaitError) {
  try {
    rt_.wait_until([] { return false; });
  } catch (const std::logic_error&) {
  }
  EXPECT_FALSE(platform_.cpu().spinning());
}

TEST_F(FailureTest, ZeroUnitEstimateRejected) {
  auto stream = rt_.create_stream();
  WorkEstimate est;  // all zero
  EXPECT_THROW(rt_.launch_range(stream, 4, est, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gg::cudalite
