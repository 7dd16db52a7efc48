// Randomized end-to-end stress: random workload configurations under random
// policies and parameters must always terminate, verify, and satisfy the
// global accounting invariants.  Seeded, so failures reproduce.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/registry.h"

namespace gg {
namespace {

greengpu::Policy random_policy(Rng& rng) {
  switch (rng.uniform_int(6)) {
    case 0: return greengpu::Policy::best_performance();
    case 1:
      return greengpu::Policy::static_pair(rng.uniform_int(6), rng.uniform_int(6));
    case 2: return greengpu::Policy::static_division(rng.uniform(0.0, 0.9));
    case 3: {
      greengpu::GreenGpuParams params;
      params.wma.alpha_core = rng.uniform(0.01, 0.9);
      params.wma.alpha_mem = rng.uniform(0.01, 0.9);
      params.wma.phi = rng.uniform(0.05, 0.95);
      params.wma.beta = rng.uniform(0.05, 0.95);
      params.wma.interval = Seconds{rng.uniform(0.5, 8.0)};
      // An unused draw: it keeps every later draw of each seed, and so the
      // configurations this seed set covers, fixed.
      (void)rng.uniform(0.2, 1.0);
      return greengpu::Policy::scaling_only(params);
    }
    case 4: {
      greengpu::GreenGpuParams params;
      params.division.step = rng.uniform(0.01, 0.2);
      params.division.initial_ratio = rng.uniform(0.0, 0.9);
      params.division.safeguard = rng.uniform() < 0.5;
      const auto kind = static_cast<greengpu::DividerKind>(rng.uniform_int(3));
      return greengpu::Policy::division_with(kind, params);
    }
    default: {
      greengpu::Policy p = greengpu::Policy::green_gpu();
      p.cpu_governor = static_cast<greengpu::CpuGovernorKind>(rng.uniform_int(6));
      return p;
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomKmeansConfigUnderRandomPolicy) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 11);
  workloads::KmeansConfig cfg;
  cfg.points = 256 + rng.uniform_int(2048);
  cfg.dims = 2 + rng.uniform_int(6);
  cfg.clusters = 2 + rng.uniform_int(6);
  cfg.iterations = 3 + rng.uniform_int(12);
  cfg.seed = rng.next();
  cfg.profile.core_util = rng.uniform(0.05, 1.0);
  cfg.profile.mem_util = rng.uniform(0.05, 1.0);
  cfg.profile.unit_time_s = rng.uniform(1e-5, 1e-3);
  cfg.profile.units_per_iteration = 1000.0 + rng.uniform(0.0, 1e5);
  cfg.profile.cpu_slowdown = rng.uniform(0.5, 20.0);

  workloads::Kmeans wl(cfg);
  greengpu::RunOptions options;
  options.pool_workers = 1 + rng.uniform_int(4);
  options.sync_spin = rng.uniform() < 0.8;
  const greengpu::Policy policy = random_policy(rng);

  const auto r = greengpu::run_experiment(wl, policy, options);
  EXPECT_TRUE(r.verified) << "policy " << policy.name << " seed " << GetParam();
  EXPECT_GT(r.exec_time.get(), 0.0);
  EXPECT_GT(r.gpu_energy.get(), 0.0);
  EXPECT_GT(r.cpu_energy.get(), 0.0);
  EXPECT_GE(r.gpu_dynamic_energy().get(), -1e-6);
  EXPECT_GE(r.final_ratio, 0.0);
  EXPECT_LE(r.final_ratio, 0.95 + 1e-12);
  EXPECT_EQ(r.iterations.size(), cfg.iterations);
  for (const auto& it : r.iterations) {
    EXPECT_GE(it.duration.get(), 0.0);
    EXPECT_GE(it.total_energy().get(), 0.0);
  }
}

TEST_P(FuzzTest, RandomMultiGpuHotspot) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 7);
  workloads::HotspotConfig cfg;
  cfg.rows = 24 + rng.uniform_int(64);
  cfg.cols = 24 + rng.uniform_int(64);
  cfg.iterations = 3 + rng.uniform_int(8);
  cfg.profile.cpu_slowdown = rng.uniform(0.5, 8.0);

  workloads::Hotspot wl(cfg);
  const std::size_t gpus = 1 + rng.uniform_int(4);
  greengpu::Policy policy = greengpu::Policy::division_only();
  if (rng.uniform() < 0.5) {
    policy = greengpu::Policy::green_gpu();
    policy.divider = static_cast<greengpu::DividerKind>(rng.uniform_int(2));
  }
  greengpu::RunOptions options;
  options.pool_workers = 2;
  const auto r = greengpu::run_experiment(wl, policy, options, gpus);
  EXPECT_TRUE(r.verified) << "gpus " << gpus << " seed " << GetParam();
  double share_sum = 0.0;
  for (double s : r.final_shares) {
    EXPECT_GE(s, -1e-12);
    share_sum += s;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_EQ(r.per_gpu_energy.size(), gpus);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace gg
