// End-to-end multi-GPU experiments: correctness of the divided computation
// and the expected scaling behaviour, all through ExperimentEngine.
#include <gtest/gtest.h>

#include <string>

#include "src/common/snapshot.h"
#include "src/greengpu/runner.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "tests/greengpu/checkpoint_files.h"

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
  policy.params.hardened = true;
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

// --- Snapshots at any card count ---------------------------------------------

/// The policies whose controllers a snapshot carries: both tiers with the
/// step divider, both tiers with Qilin profiling, division alone, and both
/// tiers with the scaler sampling every 0.1 s.  The last one puts every
/// scaler tick at the same instant as a CPU governor tick, so the fork must
/// re-arm colliding tick trains in the donor's order.
greengpu::Policy snapshot_policy(int which) {
  switch (which) {
    case 0:
      return greengpu::Policy::green_gpu();
    case 1: {
      greengpu::Policy p = greengpu::Policy::green_gpu();
      p.divider = greengpu::DividerKind::kProfiling;
      return p;
    }
    case 2:
      return greengpu::Policy::division_only();
    default: {
      greengpu::GreenGpuParams params;
      params.wma.interval = greengpu::kGovernorInterval;
      return greengpu::Policy::green_gpu(params);
    }
  }
}

greengpu::RunOptions snapshot_options() {
  greengpu::RunOptions o = fast();
  o.model_only = true;  // forked cells run model-only, as the batch engine's do
  return o;
}

void expect_same_record(const greengpu::IterationRecord& a,
                        const greengpu::IterationRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.cpu_ratio, b.cpu_ratio);
  EXPECT_EQ(a.cpu_time.get(), b.cpu_time.get());
  EXPECT_EQ(a.gpu_time.get(), b.gpu_time.get());
  EXPECT_EQ(a.duration.get(), b.duration.get());
  EXPECT_EQ(a.gpu_energy.get(), b.gpu_energy.get());
  EXPECT_EQ(a.cpu_energy.get(), b.cpu_energy.get());
  EXPECT_EQ(a.copy_busy_time.get(), b.copy_busy_time.get());
  EXPECT_EQ(a.overlap_time.get(), b.overlap_time.get());
  EXPECT_EQ(a.division_action, b.division_action);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.degraded, b.degraded);
}

void expect_same_result(const greengpu::ExperimentResult& a,
                        const greengpu::ExperimentResult& b) {
  EXPECT_EQ(a.exec_time.get(), b.exec_time.get());
  EXPECT_EQ(a.gpu_energy.get(), b.gpu_energy.get());
  EXPECT_EQ(a.cpu_energy.get(), b.cpu_energy.get());
  EXPECT_EQ(a.cpu_spin_energy.get(), b.cpu_spin_energy.get());
  EXPECT_EQ(a.final_shares, b.final_shares);
  ASSERT_EQ(a.per_gpu_energy.size(), b.per_gpu_energy.size());
  for (std::size_t g = 0; g < a.per_gpu_energy.size(); ++g) {
    EXPECT_EQ(a.per_gpu_energy[g].get(), b.per_gpu_energy[g].get()) << "card " << g;
  }
  EXPECT_EQ(a.convergence_iteration, b.convergence_iteration);
  EXPECT_EQ(a.division_moves, b.division_moves);
  EXPECT_EQ(a.scaler_decision_count, b.scaler_decision_count);
  EXPECT_EQ(a.governor_decision_count, b.governor_decision_count);
  EXPECT_EQ(a.gpu_frequency_transitions, b.gpu_frequency_transitions);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    expect_same_record(a.iterations[i], b.iterations[i]);
  }
}

class MultiGpuSnapshot
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MultiGpuSnapshot, ForkedRunMatchesUninterrupted) {
  const auto [gpus, which] = GetParam();
  const greengpu::Policy policy = snapshot_policy(which);
  const greengpu::RunOptions options = snapshot_options();
  constexpr std::size_t kForkAt = 4;

  workloads::Kmeans plain_wl(small_kmeans());
  const auto plain = greengpu::run_experiment(plain_wl, policy, options, gpus);
  ASSERT_GT(plain.division_moves, 0u);  // the divider is live past the fork

  workloads::Kmeans donor_wl(small_kmeans());
  greengpu::ExperimentEngine donor(donor_wl, policy, options, gpus);
  donor.start();
  while (donor.iteration() < kForkAt) donor.step_iteration();
  common::SnapshotWriter prefix;
  donor.save_prefix(prefix);

  workloads::Kmeans fork_wl(small_kmeans());
  greengpu::ExperimentEngine fork(fork_wl, policy, options, gpus);
  fork.start();
  auto reader = common::SnapshotReader::from_payload(prefix.payload());
  fork.restore_prefix(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(fork.iteration(), kForkAt);
  while (fork.iteration() < fork.total_iterations()) fork.step_iteration();
  expect_same_result(fork.finish(), plain);

  // The donor itself continues unperturbed after saving.
  while (donor.iteration() < donor.total_iterations()) donor.step_iteration();
  expect_same_result(donor.finish(), plain);
}

std::string snapshot_case_name(
    const ::testing::TestParamInfo<MultiGpuSnapshot::ParamType>& info) {
  static const char* const kNames[] = {"greengpu_step", "greengpu_qilin", "division",
                                       "greengpu_colliding_ticks"};
  return std::to_string(std::get<0>(info.param)) + "gpu_" + kNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    CardsAndPolicies, MultiGpuSnapshot,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values(0, 1, 2, 3)),
    snapshot_case_name);

TEST(MultiGpu, SnapshotRestoresOnlyIntoAsManyCards) {
  const greengpu::Policy policy = greengpu::Policy::green_gpu();
  workloads::Kmeans one_wl(small_kmeans());
  greengpu::ExperimentEngine one(one_wl, policy, snapshot_options(), 1);
  one.start();
  one.step_iteration();
  common::SnapshotWriter w;
  one.save_prefix(w);

  workloads::Kmeans two_wl(small_kmeans());
  greengpu::ExperimentEngine two(two_wl, policy, snapshot_options(), 2);
  two.start();
  auto reader = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(two.restore_prefix(reader), common::SnapshotError);
}

TEST(MultiGpu, CheckpointCadenceChangesNoResult) {
  // An N-card run's save_checkpoint record (what a checkpointed campaign's
  // row files hold) names its card count and carries the scaler and divider
  // state; taking one every 3 iterations is observation only.
  for (const std::size_t gpus : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(gpus) + " cards");
    const greengpu::Policy policy = greengpu::Policy::green_gpu();
    workloads::Kmeans plain_wl(small_kmeans());
    const auto plain = greengpu::run_experiment(plain_wl, policy, fast(), gpus);
    workloads::Kmeans wl(small_kmeans());
    greengpu::ExperimentEngine engine(wl, policy, fast(), gpus);
    engine.start();
    std::size_t records = 0;
    while (engine.iteration() < engine.total_iterations()) {
      engine.step_iteration();
      if (engine.iteration() % 3 != 0) continue;
      common::SnapshotWriter w;
      engine.save_checkpoint(w);
      const auto record = greengpu::test::decode_checkpoint_record(w.payload());
      EXPECT_EQ(record.iteration, engine.iteration());
      EXPECT_GT(record.sim_time, 0.0);
      EXPECT_EQ(record.cards, gpus);
      EXPECT_TRUE(record.has_scaler);
      EXPECT_TRUE(record.has_divider);
      ++records;
    }
    EXPECT_EQ(records, 3u);
    const auto result = engine.finish();
    expect_same_result(result, plain);
    EXPECT_TRUE(result.verified);
  }
}

}  // namespace
}  // namespace gg
