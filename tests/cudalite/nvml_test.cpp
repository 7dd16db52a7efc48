#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"

#include <gtest/gtest.h>

#include "src/cudalite/api.h"

namespace gg::cudalite {
namespace {

using namespace gg::literals;

class NvmlTest : public ::testing::Test {
 protected:
  NvmlTest() : rt_(platform_, 2) {
    platform_.gpu().set_core_level(0);
    platform_.gpu().set_mem_level(0);
  }

  void run_busy(double uc, double um, double seconds) {
    auto stream = rt_.create_stream();
    WorkEstimate est;
    est.units = 1.0;
    const auto& spec = platform_.gpu().spec();
    est.core_cycles_per_unit = uc * seconds * spec.core_throughput(576_MHz);
    est.mem_bytes_per_unit = um * seconds * spec.mem_bandwidth(900_MHz);
    est.overhead_per_unit_s = seconds;
    rt_.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
    rt_.synchronize(stream);
  }

  sim::Platform platform_;
  Runtime rt_;
};

TEST_F(NvmlTest, UtilizationPercentagesMatchActivity) {
  NvmlDevice nvml(platform_);
  run_busy(0.62, 0.27, 1.0);
  const UtilizationRates u = nvml.utilization_rates().rates;
  EXPECT_EQ(u.gpu, 62u);
  EXPECT_EQ(u.memory, 27u);
}

TEST_F(NvmlTest, IdleWindowReadsZero) {
  NvmlDevice nvml(platform_);
  platform_.queue().run_until(platform_.now() + 5_s);
  const UtilizationRates u = nvml.utilization_rates().rates;
  EXPECT_EQ(u.gpu, 0u);
  EXPECT_EQ(u.memory, 0u);
}

TEST_F(NvmlTest, SaturatesAtHundred) {
  NvmlDevice nvml(platform_);
  run_busy(1.0, 1.0, 1.0);
  const UtilizationRates u = nvml.utilization_rates().rates;
  EXPECT_EQ(u.gpu, 100u);
  EXPECT_EQ(u.memory, 100u);
}

TEST_F(NvmlTest, WindowResetsBetweenQueries) {
  NvmlDevice nvml(platform_);
  run_busy(0.5, 0.5, 1.0);
  (void)nvml.utilization_rates();
  platform_.queue().run_until(platform_.now() + 1_s);  // idle second
  const UtilizationRates u = nvml.utilization_rates().rates;
  EXPECT_EQ(u.gpu, 0u);
}

TEST_F(NvmlTest, ClockQueriesFollowLevels) {
  NvmlDevice nvml(platform_);
  NvSettings settings(platform_);
  settings.set_clock_levels(3, 1);
  EXPECT_DOUBLE_EQ(nvml.clock(ClockDomain::kCore).get(), 410.0);
  EXPECT_DOUBLE_EQ(nvml.clock(ClockDomain::kMemory).get(), 820.0);
}

TEST_F(NvmlTest, NvSettingsRoundTrip) {
  NvSettings settings(platform_);
  settings.set_clock_levels(2, 4);
  const auto [core, mem] = settings.clock_levels();
  EXPECT_EQ(core, 2u);
  EXPECT_EQ(mem, 4u);
  EXPECT_EQ(settings.core_table().levels(), 6u);
  EXPECT_EQ(settings.mem_table().levels(), 6u);
}

}  // namespace
}  // namespace gg::cudalite
