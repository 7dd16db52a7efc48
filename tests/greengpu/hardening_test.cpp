// Hardened-controller behaviour under injected faults: the scaler's
// stale-sample hold, the runner's retry/reroute/watchdog machinery, the
// strict zero-rate no-op guarantee, and fault-schedule determinism.

#include <gtest/gtest.h>

#include "src/cudalite/api.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/fault.h"
#include "src/workloads/kmeans.h"

namespace gg::greengpu {
namespace {

using namespace gg::literals;

workloads::KmeansConfig small_kmeans() {
  workloads::KmeansConfig cfg;
  cfg.points = 512;
  cfg.dims = 4;
  cfg.clusters = 4;
  cfg.iterations = 12;
  return cfg;
}

RunOptions fast_options() {
  RunOptions o;
  o.pool_workers = 2;
  return o;
}

GreenGpuParams hardened_params() {
  GreenGpuParams p;
  p.hardened = true;
  return p;
}

TEST(ScalerHardening, HoldsOnStaleSamples) {
  sim::Platform platform;
  sim::FaultConfig cfg;
  cfg.util_stale_rate = 1.0;  // every query returns a zero-length window
  platform.install_faults(cfg);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler scaler(nvml, settings, WmaParams{}, /*hardened=*/true);
  const auto before = settings.clock_levels();
  platform.queue().run_until(3_s);
  const ScalerDecision d = scaler.step(platform.now());
  EXPECT_FALSE(d.sample_ok);
  EXPECT_EQ(scaler.held_steps(), 1u);
  EXPECT_EQ(settings.clock_levels(), before);  // no actuation on a held step
}

TEST(ScalerHardening, HoldsOnDroppedSamples) {
  sim::Platform platform;
  sim::FaultConfig cfg;
  cfg.util_drop_rate = 1.0;
  platform.install_faults(cfg);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler scaler(nvml, settings, WmaParams{}, /*hardened=*/true);
  platform.queue().run_until(3_s);
  scaler.step(platform.now());
  platform.queue().run_until(6_s);
  scaler.step(platform.now());
  EXPECT_EQ(scaler.held_steps(), 2u);
}

TEST(ScalerHardening, UnhardenedScalerNeverHolds) {
  sim::Platform platform;
  sim::FaultConfig cfg;
  cfg.util_stale_rate = 1.0;
  platform.install_faults(cfg);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler scaler(nvml, settings, WmaParams{});
  platform.queue().run_until(3_s);
  scaler.step(platform.now());
  EXPECT_EQ(scaler.held_steps(), 0u);  // baseline happily consumes the noise
}

TEST(RunnerHardening, HardenedCompletesAndVerifiesAtTenPercentFaults) {
  workloads::Kmeans wl(small_kmeans());
  RunOptions options = fast_options();
  options.faults = sim::FaultConfig::uniform(0.10);
  const auto r = run_experiment(wl, Policy::green_gpu(hardened_params()), options);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.iterations.size(), 12u);
  EXPECT_FALSE(r.fault_events.empty());
}

TEST(RunnerHardening, UnhardenedAbortsWhenLaunchesAlwaysFail) {
  workloads::Kmeans wl(small_kmeans());
  RunOptions options = fast_options();
  options.faults.launch_fail_rate = 1.0;
  EXPECT_THROW(run_experiment(wl, Policy::green_gpu(), options), ExperimentAborted);
}

TEST(RunnerHardening, HardenedReroutesWhenLaunchesAlwaysFail) {
  workloads::KmeansConfig cfg = small_kmeans();
  cfg.iterations = 4;
  workloads::Kmeans wl(cfg);
  RunOptions options = fast_options();
  options.faults.launch_fail_rate = 1.0;
  const auto r = run_experiment(wl, Policy::green_gpu(hardened_params()), options);
  EXPECT_TRUE(r.verified);  // every chunk still executed, via the CPU
  EXPECT_EQ(r.iterations.size(), 4u);
  EXPECT_EQ(r.degraded_iterations, 4u);
  bool saw_reroute = false;
  for (const auto& e : r.fault_events) {
    if (e.outcome == sim::FaultOutcome::kRerouted) saw_reroute = true;
  }
  EXPECT_TRUE(saw_reroute);
}

TEST(RunnerHardening, ZeroRateConfigIsBitIdenticalToNoConfig) {
  workloads::Kmeans wl(small_kmeans());
  const auto base = run_experiment(wl, Policy::green_gpu(), fast_options());
  RunOptions options = fast_options();
  options.faults = sim::FaultConfig{};  // explicit all-zero config
  const auto zero = run_experiment(wl, Policy::green_gpu(), options);
  EXPECT_EQ(base.exec_time.get(), zero.exec_time.get());
  EXPECT_EQ(base.gpu_energy.get(), zero.gpu_energy.get());
  EXPECT_EQ(base.cpu_energy.get(), zero.cpu_energy.get());
  EXPECT_TRUE(zero.fault_events.empty());
}

TEST(RunnerHardening, HardeningAloneIsBitIdenticalOnAPerfectPlatform) {
  // With no faults injected, enabling every hardening path must not change
  // a single bit of the trajectory: the guarded reads, checked writes and
  // admission checks all collapse to the original arithmetic.
  workloads::Kmeans wl(small_kmeans());
  const auto base = run_experiment(wl, Policy::green_gpu(), fast_options());
  const auto hard =
      run_experiment(wl, Policy::green_gpu(hardened_params()), fast_options());
  EXPECT_EQ(base.exec_time.get(), hard.exec_time.get());
  EXPECT_EQ(base.gpu_energy.get(), hard.gpu_energy.get());
  EXPECT_EQ(base.cpu_energy.get(), hard.cpu_energy.get());
  EXPECT_EQ(base.final_ratio, hard.final_ratio);
}

TEST(RunnerHardening, FaultScheduleIsIdenticalAcrossPoolSizes) {
  workloads::Kmeans wl(small_kmeans());
  RunOptions a = fast_options();
  a.pool_workers = 1;
  a.faults = sim::FaultConfig::uniform(0.10);
  RunOptions b = fast_options();
  b.pool_workers = 4;
  b.faults = sim::FaultConfig::uniform(0.10);
  const auto ra = run_experiment(wl, Policy::green_gpu(hardened_params()), a);
  const auto rb = run_experiment(wl, Policy::green_gpu(hardened_params()), b);
  EXPECT_EQ(ra.exec_time.get(), rb.exec_time.get());
  EXPECT_EQ(ra.gpu_energy.get(), rb.gpu_energy.get());
  EXPECT_EQ(ra.cpu_energy.get(), rb.cpu_energy.get());
  ASSERT_EQ(ra.fault_events.size(), rb.fault_events.size());
  for (std::size_t i = 0; i < ra.fault_events.size(); ++i) {
    EXPECT_EQ(ra.fault_events[i].time.get(), rb.fault_events[i].time.get());
    EXPECT_EQ(ra.fault_events[i].outcome, rb.fault_events[i].outcome);
    EXPECT_EQ(ra.fault_events[i].channel, rb.fault_events[i].channel);
  }
}

TEST(RunnerHardening, SameSeedReproducesExactly) {
  workloads::Kmeans wl(small_kmeans());
  RunOptions options = fast_options();
  options.faults = sim::FaultConfig::uniform(0.10, 777);
  const auto r1 = run_experiment(wl, Policy::green_gpu(hardened_params()), options);
  const auto r2 = run_experiment(wl, Policy::green_gpu(hardened_params()), options);
  EXPECT_EQ(r1.exec_time.get(), r2.exec_time.get());
  EXPECT_EQ(r1.gpu_energy.get(), r2.gpu_energy.get());
  EXPECT_EQ(r1.fault_events.size(), r2.fault_events.size());
  EXPECT_EQ(r1.degraded_iterations, r2.degraded_iterations);
}

TEST(RunnerHardening, IterationRecordsCountFaultsAndDegradation) {
  workloads::Kmeans wl(small_kmeans());
  RunOptions options = fast_options();
  options.faults = sim::FaultConfig::uniform(0.20);
  const auto r = run_experiment(wl, Policy::green_gpu(hardened_params()), options);
  std::size_t recorded = 0;
  std::size_t degraded = 0;
  for (const auto& it : r.iterations) {
    recorded += it.fault_events;
    if (it.degraded) ++degraded;
  }
  EXPECT_GT(recorded, 0u);
  EXPECT_EQ(degraded, r.degraded_iterations);
}

}  // namespace
}  // namespace gg::greengpu
