#include "src/workloads/profile.h"

#include <gtest/gtest.h>

namespace gg::workloads {
namespace {

using namespace gg::literals;

const sim::GpuSpec kGpu{};
const sim::CpuSpec kCpu{};

TEST(MakeGpuEstimate, PeakUtilizationMatchesTargets) {
  IntensityProfile p{0.6, 0.3, 1e-3, 100.0, 4.0, 0.8};
  const auto e = make_gpu_estimate(kGpu, 576_MHz, 900_MHz, p, 100.0);
  EXPECT_DOUBLE_EQ(e.units, 100.0);
  // Reconstruct utilizations: t_core / t_unit at peak.
  const double t_core = e.core_cycles_per_unit / kGpu.core_throughput(576_MHz);
  const double t_mem = e.mem_bytes_per_unit / kGpu.mem_bandwidth(900_MHz);
  const double t_unit = std::max({t_core, t_mem, e.overhead_per_unit_s});
  EXPECT_NEAR(t_unit, 1e-3, 1e-15);
  EXPECT_NEAR(t_core / t_unit, 0.6, 1e-12);
  EXPECT_NEAR(t_mem / t_unit, 0.3, 1e-12);
}

TEST(MakeGpuEstimate, ValidatesInputs) {
  IntensityProfile p;
  p.core_util = 1.5;
  EXPECT_THROW((void)make_gpu_estimate(kGpu, 576_MHz, 900_MHz, p, 1.0), std::invalid_argument);
  p = IntensityProfile{};
  p.unit_time_s = 0.0;
  EXPECT_THROW((void)make_gpu_estimate(kGpu, 576_MHz, 900_MHz, p, 1.0), std::invalid_argument);
  p = IntensityProfile{};
  EXPECT_THROW((void)make_gpu_estimate(kGpu, 576_MHz, 900_MHz, p, 0.0), std::invalid_argument);
}

TEST(MakeCpuWork, SlowdownSetsDuration) {
  IntensityProfile p{0.5, 0.5, 1e-3, 100.0, 6.0, 0.85};
  const sim::CpuWork w = make_cpu_work(kCpu, 2800_MHz, p, 50.0);
  EXPECT_DOUBLE_EQ(w.units, 50.0);
  // Per-unit CPU time at peak = slowdown * gpu unit time.
  const double t_compute = w.ops_per_unit / kCpu.throughput(2800_MHz);
  const double t_unit = t_compute + w.overhead_per_unit.get();
  EXPECT_NEAR(t_unit, 6.0e-3, 1e-12);
  // Compute fraction splits the unit time.
  EXPECT_NEAR(t_compute / t_unit, 0.85, 1e-9);
}

TEST(MakeCpuWork, ValidatesInputs) {
  IntensityProfile p;
  EXPECT_THROW((void)make_cpu_work(kCpu, 2800_MHz, p, 0.0), std::invalid_argument);
  p.cpu_slowdown = 0.0;
  EXPECT_THROW((void)make_cpu_work(kCpu, 2800_MHz, p, 1.0), std::invalid_argument);
  p = IntensityProfile{};
  p.cpu_compute_fraction = 1.2;
  EXPECT_THROW((void)make_cpu_work(kCpu, 2800_MHz, p, 1.0), std::invalid_argument);
}

TEST(MakeCpuWork, UsesAllCoresByDefault) {
  IntensityProfile p{0.5, 0.5, 1e-3, 100.0, 6.0, 0.85};
  EXPECT_EQ(make_cpu_work(kCpu, 2800_MHz, p, 1.0).active_cores, 0);
}

/// The balance identity behind the division tier: with CPU share r, the CPU
/// chunk takes r*slowdown and the GPU chunk (1-r), both relative to the
/// all-GPU iteration time.  Equal finish at r* = 1/(1+slowdown).
class BalanceTest : public ::testing::TestWithParam<double> {};

TEST_P(BalanceTest, EqualTimeShareMatchesFormula) {
  const double s = GetParam();
  IntensityProfile p{0.5, 0.3, 1e-3, 1000.0, s, 0.85};
  const double r_star = 1.0 / (1.0 + s);
  const auto gpu = make_gpu_estimate(kGpu, 576_MHz, 900_MHz, p, (1.0 - r_star) * 1000.0);
  const auto cpu = make_cpu_work(kCpu, 2800_MHz, p, r_star * 1000.0);
  const double t_gpu = gpu.units * std::max({gpu.core_cycles_per_unit /
                                                 kGpu.core_throughput(576_MHz),
                                             gpu.mem_bytes_per_unit /
                                                 kGpu.mem_bandwidth(900_MHz),
                                             gpu.overhead_per_unit_s});
  const double t_cpu = cpu.units * (cpu.ops_per_unit / kCpu.throughput(2800_MHz) +
                                    cpu.overhead_per_unit.get());
  EXPECT_NEAR(t_gpu, t_cpu, 1e-9 * t_gpu);
}

INSTANTIATE_TEST_SUITE_P(SlowdownSweep, BalanceTest,
                         ::testing::Values(1.0, 2.0, 4.0, 6.0, 9.0, 14.0));

}  // namespace
}  // namespace gg::workloads
