#include "src/greengpu/cpu_governor.h"

#include <gtest/gtest.h>

namespace gg::greengpu {
namespace {

using namespace gg::literals;

class OndemandTest : public ::testing::Test {
 protected:
  OndemandTest() : governor_(platform_) {}

  void busy_for(Seconds t) {
    sim::CpuWork w;
    w.units = 1.0;
    w.overhead_per_unit = t;
    platform_.cpu().submit(w, {});
  }

  sim::Platform platform_;
  OndemandGovernor governor_;
};

TEST_F(OndemandTest, HighLoadJumpsToPeak) {
  // Start from a low P-state with a fully busy window.
  platform_.cpu().set_level(3);
  busy_for(1_s);
  platform_.queue().run_until(0.1_s);
  const GovernorDecision d = governor_.step(platform_.now());
  EXPECT_GT(d.util, 0.8);
  EXPECT_EQ(d.level, 0u);  // straight to the highest frequency
  EXPECT_EQ(platform_.cpu().level(), 0u);
}

TEST_F(OndemandTest, IdleStepsDownOneLevelAtATime) {
  platform_.queue().run_until(0.1_s);
  EXPECT_EQ(governor_.step(platform_.now()).level, 1u);
  platform_.queue().run_until(0.2_s);
  EXPECT_EQ(governor_.step(platform_.now()).level, 2u);
  platform_.queue().run_until(0.3_s);
  EXPECT_EQ(governor_.step(platform_.now()).level, 3u);
  // Clamps at the lowest level.
  platform_.queue().run_until(0.4_s);
  EXPECT_EQ(governor_.step(platform_.now()).level, 3u);
}

TEST_F(OndemandTest, MidUtilizationHoldsLevel) {
  platform_.cpu().set_level(1);
  // Busy half of the window on both cores -> utilization 0.5 between the
  // thresholds: no change.
  busy_for(0.05_s);
  platform_.queue().run_until(0.1_s);
  const GovernorDecision d = governor_.step(platform_.now());
  EXPECT_NEAR(d.util, 0.5, 0.01);
  EXPECT_EQ(d.level, 1u);
}

TEST_F(OndemandTest, SpinDefeatsThrottling) {
  // The paper's Section VII-A observation: the synchronous-wait spin keeps
  // one core saturated, so package utilization never falls below the
  // down-threshold and ondemand never throttles while the GPU computes.
  platform_.cpu().set_spinning(true);
  for (int k = 1; k <= 20; ++k) {
    platform_.queue().run_until(Seconds{0.1 * k});
    const GovernorDecision d = governor_.step(platform_.now());
    EXPECT_EQ(d.level, 0u);
    EXPECT_GT(d.util, 0.99);
  }
}

TEST_F(OndemandTest, PeriodicAttachDrivesDecisions) {
  governor_.attach();
  platform_.queue().run_until(1.05_s);
  governor_.detach();
  EXPECT_EQ(governor_.steps(), 10u);  // 100 ms interval
  // Idle the whole time: must have walked down to the floor.
  EXPECT_EQ(platform_.cpu().level(), 3u);
  // Detach stops further steps.
  platform_.queue().run_until(2_s);
  EXPECT_EQ(governor_.steps(), 10u);
}

TEST_F(OndemandTest, ReactsToLoadAfterIdle) {
  governor_.attach();
  platform_.queue().run_until(0.55_s);  // walk down to the floor
  EXPECT_EQ(platform_.cpu().level(), 3u);
  busy_for(0.5_s);
  platform_.queue().run_until(0.7_s);
  EXPECT_EQ(platform_.cpu().level(), 0u);  // jumped back to peak
  governor_.detach();
}

TEST_F(OndemandTest, DecisionsRecorded) {
  governor_.step(platform_.now());
  governor_.step(platform_.now());
  EXPECT_EQ(governor_.decisions().size(), 2u);
}

}  // namespace
}  // namespace gg::greengpu
