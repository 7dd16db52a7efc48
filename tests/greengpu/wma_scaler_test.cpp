#include "src/greengpu/wma_scaler.h"

#include <gtest/gtest.h>

#include "src/cudalite/api.h"

namespace gg::greengpu {
namespace {

using namespace gg::literals;

class WmaScalerTest : public ::testing::Test {
 protected:
  WmaScalerTest()
      : rt_(platform_, 2),
        nvml_(platform_),
        settings_(platform_),
        scaler_(nvml_, settings_, WmaParams{}) {}

  /// Submit a kernel that is busy at the given peak-clock utilizations for
  /// `seconds` of simulated time at peak clocks.
  void submit_busy(double uc, double um, double seconds) {
    auto stream = rt_.create_stream();
    cudalite::WorkEstimate est;
    est.units = seconds / 1e-3;
    const auto& spec = platform_.gpu().spec();
    est.core_cycles_per_unit = uc * 1e-3 * spec.core_throughput(576_MHz);
    est.mem_bytes_per_unit = um * 1e-3 * spec.mem_bandwidth(900_MHz);
    est.overhead_per_unit_s = 1e-3;
    rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
  }

  sim::Platform platform_;
  cudalite::Runtime rt_;
  cudalite::NvmlDevice nvml_;
  cudalite::NvSettings settings_;
  GpuFrequencyScaler scaler_;
};

TEST_F(WmaScalerTest, IdleDevicePushedToLowestLevels) {
  platform_.queue().run_until(3_s);
  const ScalerDecision d = scaler_.step(platform_.now());
  EXPECT_EQ(d.core_util, 0.0);
  EXPECT_EQ(d.mem_util, 0.0);
  EXPECT_EQ(d.chosen.core, platform_.gpu().core_table().lowest_level());
  EXPECT_EQ(d.chosen.mem, platform_.gpu().mem_table().lowest_level());
}

TEST_F(WmaScalerTest, FullLoadReachesPeakLevels) {
  settings_.set_clock_levels(0, 0);
  submit_busy(1.0, 1.0, 100.0);
  for (int k = 0; k < 5; ++k) {
    platform_.queue().run_until(platform_.now() + 3_s);
    scaler_.step(platform_.now());
  }
  EXPECT_EQ(platform_.gpu().core_level(), 0u);
  EXPECT_EQ(platform_.gpu().mem_level(), 0u);
}

TEST_F(WmaScalerTest, ModerateLoadSettlesAtMatchingLevels) {
  // u_core 0.58 / u_mem 0.25 at peak: equilibrium is the core level whose
  // umean brackets the (frequency-compensated) utilization, and a
  // conservative memory level (alpha_m = 0.02).
  settings_.set_clock_levels(0, 0);
  submit_busy(0.58, 0.25, 1000.0);
  for (int k = 0; k < 10; ++k) {
    platform_.queue().run_until(platform_.now() + 3_s);
    scaler_.step(platform_.now());
  }
  // Core settles below peak but above the slack bound (0.58 -> >= 355 MHz).
  EXPECT_GT(platform_.gpu().core_level(), 0u);
  EXPECT_LE(platform_.gpu().core_level(), 3u);
  // Memory throttles at most to the level just above the 0.25 slack bound.
  EXPECT_GT(platform_.gpu().mem_level(), 0u);
  // Throttling stayed within slack: execution continues unimpeded, i.e. the
  // utilizations remain below 1.
  platform_.queue().run_until(platform_.now() + 3_s);
  const ScalerDecision d = scaler_.step(platform_.now());
  EXPECT_LT(d.core_util, 1.0);
  EXPECT_LT(d.mem_util, 1.0);
}

TEST_F(WmaScalerTest, RampFollowsUtilizationWithinOneInterval) {
  // Fig. 5: utilization ramps up and the next scaling step raises clocks.
  const ScalerDecision idle = scaler_.step(platform_.now());
  EXPECT_EQ(idle.chosen.core, 5u);
  submit_busy(0.9, 0.9, 100.0);
  platform_.queue().run_until(platform_.now() + 3_s);
  const ScalerDecision d = scaler_.step(platform_.now());
  EXPECT_GT(d.core_util, 0.8);
  EXPECT_LT(d.chosen.core, 3u);  // jumped up decisively
}

TEST_F(WmaScalerTest, AttachStepsPeriodically) {
  scaler_.attach(platform_.queue());
  platform_.queue().run_until(10_s);
  EXPECT_EQ(scaler_.steps(), 3u);  // 3 s interval
  scaler_.detach();
  platform_.queue().run_until(20_s);
  EXPECT_EQ(scaler_.steps(), 3u);
}

TEST_F(WmaScalerTest, DecisionsRecordUtilizations) {
  settings_.set_clock_levels(0, 0);
  submit_busy(0.4, 0.3, 3.0);
  platform_.queue().run_until(3_s);
  const ScalerDecision d = scaler_.step(platform_.now());
  EXPECT_NEAR(d.core_util, 0.4, 0.02);
  EXPECT_NEAR(d.mem_util, 0.3, 0.02);
  EXPECT_EQ(scaler_.decisions().size(), 1u);
}

TEST_F(WmaScalerTest, ResetForgetsHistory) {
  submit_busy(1.0, 1.0, 10.0);
  platform_.queue().run_until(3_s);
  scaler_.step(platform_.now());
  scaler_.reset();
  EXPECT_EQ(scaler_.steps(), 0u);
  EXPECT_TRUE(scaler_.decisions().empty());
  EXPECT_DOUBLE_EQ(scaler_.table().weight(5, 5), 1.0);
}

TEST_F(WmaScalerTest, BadWmaParamsRejected) {
  WmaParams params;
  params.phi = 1.5;
  EXPECT_THROW(GpuFrequencyScaler(nvml_, settings_, params), std::invalid_argument);
  params = WmaParams{};
  params.beta = 1.0;
  EXPECT_THROW(GpuFrequencyScaler(nvml_, settings_, params), std::invalid_argument);
  params = WmaParams{};
  params.alpha_mem = -0.1;
  EXPECT_THROW(GpuFrequencyScaler(nvml_, settings_, params), std::invalid_argument);
}

TEST_F(WmaScalerTest, EnforcesArgmaxPairOnDevice) {
  platform_.queue().run_until(3_s);  // idle window
  const ScalerDecision d = scaler_.step(platform_.now());
  EXPECT_EQ(platform_.gpu().core_level(), d.chosen.core);
  EXPECT_EQ(platform_.gpu().mem_level(), d.chosen.mem);
}

}  // namespace
}  // namespace gg::greengpu
