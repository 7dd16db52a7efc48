#include "src/greengpu/cpu_governor.h"

#include <gtest/gtest.h>

namespace gg::greengpu {
namespace {

using namespace gg::literals;

class GovernorTest : public ::testing::Test {
 protected:
  void busy_for(Seconds t) {
    sim::CpuWork w;
    w.units = 1.0;
    w.overhead_per_unit = t;
    platform_.cpu().submit(w, {});
  }

  sim::Platform platform_;
};

TEST_F(GovernorTest, PerformancePinsPeak) {
  platform_.cpu().set_level(3);
  PerformanceGovernor gov(platform_);
  platform_.queue().run_until(0.1_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 0u);
  EXPECT_EQ(platform_.cpu().level(), 0u);
}

TEST_F(GovernorTest, PowersavePinsFloor) {
  PowersaveGovernor gov(platform_);
  busy_for(1_s);  // even fully loaded
  platform_.queue().run_until(0.1_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 3u);
}

TEST_F(GovernorTest, ConservativeStepsUpGradually) {
  platform_.cpu().set_level(3);
  ConservativeGovernor gov(platform_);
  busy_for(10_s);
  // Fully loaded: one level per step, not a jump (contrast with ondemand).
  platform_.queue().run_until(0.1_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 2u);
  platform_.queue().run_until(0.2_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 1u);
  platform_.queue().run_until(0.3_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 0u);
  platform_.queue().run_until(0.4_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 0u);  // clamps at peak
}

TEST_F(GovernorTest, ConservativeStepsDownWhenIdle) {
  ConservativeGovernor gov(platform_);
  platform_.queue().run_until(0.1_s);
  EXPECT_EQ(gov.step(platform_.now()).level, 1u);
}

TEST_F(GovernorTest, WmaGovernorThrottlesIdleAndRestoresUnderLoad) {
  WmaCpuGovernor gov(platform_);
  // Idle windows: learns its way to the floor.
  for (int k = 1; k <= 10; ++k) {
    platform_.queue().run_until(Seconds{0.1 * k});
    gov.step(platform_.now());
  }
  EXPECT_EQ(platform_.cpu().level(), 3u);
  // Full load: jumps back up quickly (performance-weighted losses).
  busy_for(20_s);
  std::size_t level_after = 99;
  for (int k = 11; k <= 14; ++k) {
    platform_.queue().run_until(Seconds{0.1 * k});
    level_after = gov.step(platform_.now()).level;
  }
  EXPECT_EQ(level_after, 0u);
}

TEST_F(GovernorTest, WmaGovernorTracksIntermediateLoad) {
  WmaCpuGovernor gov(platform_);
  // ~55% package utilization: the suitable P-state is an interior level.
  for (int k = 1; k <= 20; ++k) {
    busy_for(Seconds{0.055});
    platform_.queue().run_until(Seconds{0.1 * k});
    gov.step(platform_.now());
  }
  EXPECT_GT(platform_.cpu().level(), 0u);
  EXPECT_LT(platform_.cpu().level(), 3u);
}

TEST_F(GovernorTest, AttachDetachLifecycle) {
  PerformanceGovernor gov(platform_);
  gov.attach();
  platform_.queue().run_until(1.05_s);
  EXPECT_EQ(gov.steps(), 10u);
  gov.detach();
  platform_.queue().run_until(2_s);
  EXPECT_EQ(gov.steps(), 10u);
  EXPECT_EQ(gov.decisions().size(), 10u);
}

TEST(GovernorKind, StringRoundTrip) {
  for (auto kind : {CpuGovernorKind::kNone, CpuGovernorKind::kPerformance,
                    CpuGovernorKind::kPowersave, CpuGovernorKind::kOndemand,
                    CpuGovernorKind::kConservative, CpuGovernorKind::kWma}) {
    EXPECT_EQ(cpu_governor_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)cpu_governor_from_string("bogus"), std::invalid_argument);
}

TEST(GovernorFactory, ProducesNamedGovernors) {
  sim::Platform platform;
  EXPECT_EQ(make_cpu_governor(CpuGovernorKind::kNone, platform), nullptr);
  for (auto kind : {CpuGovernorKind::kPerformance, CpuGovernorKind::kPowersave,
                    CpuGovernorKind::kOndemand, CpuGovernorKind::kConservative,
                    CpuGovernorKind::kWma}) {
    const auto gov = make_cpu_governor(kind, platform);
    ASSERT_NE(gov, nullptr);
    EXPECT_EQ(gov->name(), to_string(kind));
  }
}

}  // namespace
}  // namespace gg::greengpu
