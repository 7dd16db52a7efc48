// End-to-end multi-GPU experiments: correctness of the divided computation
// and the expected scaling behaviour, all through ExperimentEngine.
#include <gtest/gtest.h>

#include "src/common/snapshot.h"
#include "src/greengpu/runner.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"

namespace gg {
namespace {

greengpu::RunOptions fast() {
  greengpu::RunOptions o;
  o.pool_workers = 2;
  return o;
}

greengpu::Policy profiling_division() {
  return greengpu::Policy::division_with(greengpu::DividerKind::kProfiling);
}

workloads::KmeansConfig small_kmeans() {
  workloads::KmeansConfig cfg;
  cfg.points = 2048;
  cfg.dims = 4;
  cfg.clusters = 5;
  cfg.iterations = 10;
  return cfg;
}

TEST(MultiGpu, SingleGpuMatchesAnalyticBalance) {
  workloads::Kmeans wl{};
  const auto r = greengpu::run_experiment(wl, profiling_division(), fast(), 1);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.final_shares.size(), 2u);
  EXPECT_NEAR(r.final_shares[0], 1.0 / 7.0, 0.01);  // cpu_slowdown 6
}

TEST(MultiGpu, TwoGpusConvergeToWaterfillShares) {
  workloads::Kmeans wl{};
  const auto r = greengpu::run_experiment(wl, profiling_division(), fast(), 2);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.final_shares.size(), 3u);
  EXPECT_NEAR(r.final_shares[0], 1.0 / 13.0, 0.01);
  EXPECT_NEAR(r.final_shares[1], 6.0 / 13.0, 0.01);
  EXPECT_NEAR(r.final_shares[2], 6.0 / 13.0, 0.01);
  EXPECT_DOUBLE_EQ(r.final_ratio, r.final_shares[0]);
}

TEST(MultiGpu, MoreGpusShortenExecution) {
  workloads::Kmeans one(small_kmeans());
  workloads::Kmeans two(small_kmeans());
  const auto r1 = greengpu::run_experiment(one, profiling_division(), fast(), 1);
  const auto r2 = greengpu::run_experiment(two, profiling_division(), fast(), 2);
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r2.verified);
  EXPECT_LT(r2.exec_time.get(), r1.exec_time.get() * 0.65);
}

TEST(MultiGpu, BaselinePutsEverythingOnGpuZero) {
  workloads::Kmeans wl(small_kmeans());
  const auto r =
      greengpu::run_experiment(wl, greengpu::Policy::best_performance(), fast(), 2);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.per_gpu_energy.size(), 2u);
  // Card 1 idles: its energy is its idle power times the run, strictly less
  // than the busy card's.
  EXPECT_LT(r.per_gpu_energy[1].get(), r.per_gpu_energy[0].get());
  EXPECT_NEAR((r.per_gpu_energy[0] + r.per_gpu_energy[1]).get(), r.gpu_energy.get(),
              1e-6 * r.gpu_energy.get());
  EXPECT_EQ(r.final_shares, (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(MultiGpu, StaticDivisionGivesGpuZeroTheRest) {
  workloads::Kmeans wl(small_kmeans());
  const auto r =
      greengpu::run_experiment(wl, greengpu::Policy::static_division(0.2), fast(), 2);
  EXPECT_TRUE(r.verified);
  for (const auto& it : r.iterations) EXPECT_DOUBLE_EQ(it.cpu_ratio, 0.2);
  EXPECT_EQ(r.final_shares, (std::vector<double>{0.2, 0.8, 0.0}));
}

TEST(MultiGpu, GreenGpuScalesEachCard) {
  workloads::Hotspot wl{};
  greengpu::Policy policy = greengpu::Policy::green_gpu();
  policy.divider = greengpu::DividerKind::kProfiling;
  const auto green = greengpu::run_experiment(wl, policy, fast(), 2);
  EXPECT_TRUE(green.verified);
  workloads::Hotspot base_wl{};
  const auto base =
      greengpu::run_experiment(base_wl, greengpu::Policy::best_performance(), fast(), 2);
  // Holistic multi-GPU beats the all-on-one-GPU default.
  EXPECT_LT(green.total_energy().get(), base.total_energy().get());
  EXPECT_LT(green.exec_time.get(), base.exec_time.get());
}

TEST(MultiGpu, NonDivisibleWorkloadRunsOnGpuZero) {
  const auto r =
      greengpu::run_experiment("pathfinder", greengpu::Policy::green_gpu(), fast(), 2);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.per_gpu_energy[0].get(), r.per_gpu_energy[1].get());
}

TEST(MultiGpu, ZeroGpusRejected) {
  workloads::Kmeans wl(small_kmeans());
  EXPECT_THROW(
      (void)greengpu::run_experiment(wl, greengpu::Policy::best_performance(), fast(), 0),
      std::invalid_argument);
}

TEST(MultiGpu, EnergyModelDividerHasNoMultiGpuForm) {
  workloads::Kmeans wl(small_kmeans());
  EXPECT_THROW((void)greengpu::run_experiment(
                   wl, greengpu::Policy::division_with(greengpu::DividerKind::kEnergyModel),
                   fast(), 2),
               std::invalid_argument);
}

// A hardened two-card run under launch and host faults: rerouting, the
// watchdog and the degraded-iteration count work at any card count, and the
// kernel pool's size changes no result.
greengpu::ExperimentResult hardened_faulty_hotspot(std::size_t pool_workers) {
  workloads::Hotspot wl{};
  greengpu::Policy policy = greengpu::Policy::green_gpu();
  policy.params.hardening.enabled = true;
  greengpu::RunOptions options;
  options.pool_workers = pool_workers;
  options.faults.seed = 11;
  options.faults.launch_fail_rate = 0.3;
  options.faults.host_fail_rate = 0.3;
  return greengpu::run_experiment(wl, policy, options, 2);
}

TEST(MultiGpu, HardenedFaultyRunCompletesVerifiesAndIsPoolIndependent) {
  const auto one = hardened_faulty_hotspot(1);
  const auto four = hardened_faulty_hotspot(4);
  EXPECT_TRUE(one.verified);
  EXPECT_TRUE(four.verified);
  EXPECT_GT(one.fault_event_count, 0u);
  EXPECT_GT(one.degraded_iterations, 0u);
  EXPECT_EQ(one.degraded_iterations, four.degraded_iterations);
  EXPECT_EQ(one.fault_event_count, four.fault_event_count);
  EXPECT_EQ(one.exec_time.get(), four.exec_time.get());
  EXPECT_EQ(one.total_energy().get(), four.total_energy().get());
  EXPECT_EQ(one.final_shares, four.final_shares);
}

TEST(MultiGpu, SnapshotsThrowOnMultiGpuEngines) {
  workloads::Kmeans wl(small_kmeans());
  const greengpu::Policy policy = greengpu::Policy::green_gpu();
  greengpu::ExperimentEngine engine(wl, policy, fast(), 2);
  engine.start();
  engine.step_iteration();
  common::SnapshotWriter w;
  EXPECT_THROW(engine.save_prefix(w), common::SnapshotError);
  EXPECT_THROW(engine.save_checkpoint(w), common::SnapshotError);
  (void)engine.finish();
}

}  // namespace
}  // namespace gg
