// DecisionRecorder retention modes and their threading through the runner
// and campaign layers.  Retention is pure telemetry: aggregates must stay
// bit-identical across modes.
#include "src/greengpu/telemetry.h"

#include <gtest/gtest.h>

#include "src/greengpu/campaign.h"
#include "src/greengpu/runner.h"

namespace gg::greengpu {
namespace {

TEST(DecisionRecorder, FullModeKeepsEverything) {
  DecisionRecorder<int> r(RecordOptions{RecordMode::kFull, 4});
  for (int i = 0; i < 10; ++i) r.push(i);
  EXPECT_EQ(r.total(), 10u);
  EXPECT_EQ(r.retained(), 10u);
  EXPECT_EQ(r.log().size(), 10u);
  EXPECT_EQ(r.snapshot(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(DecisionRecorder, RingModeKeepsTailInArrivalOrder) {
  DecisionRecorder<int> r(RecordOptions{RecordMode::kRing, 4});
  for (int i = 0; i < 3; ++i) r.push(i);
  EXPECT_EQ(r.snapshot(), (std::vector<int>{0, 1, 2}));  // not yet wrapped
  for (int i = 3; i < 11; ++i) r.push(i);
  EXPECT_EQ(r.total(), 11u);
  EXPECT_EQ(r.retained(), 4u);
  EXPECT_EQ(r.snapshot(), (std::vector<int>{7, 8, 9, 10}));
}

TEST(DecisionRecorder, CountersModeKeepsOnlyTheCount) {
  DecisionRecorder<int> r(RecordOptions{RecordMode::kCounters, 4});
  for (int i = 0; i < 1000; ++i) r.push(i);
  EXPECT_EQ(r.total(), 1000u);
  EXPECT_EQ(r.retained(), 0u);
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(DecisionRecorder, TakeMovesRetainedRecordsOut) {
  DecisionRecorder<int> r(RecordOptions{RecordMode::kRing, 3});
  for (int i = 0; i < 5; ++i) r.push(i);
  EXPECT_EQ(r.take(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(r.retained(), 0u);
  EXPECT_EQ(r.total(), 5u);  // lifetime count survives the take
}

TEST(DecisionRecorder, ZeroRingCapacityClampsToOne) {
  DecisionRecorder<int> r(RecordOptions{RecordMode::kRing, 0});
  for (int i = 0; i < 4; ++i) r.push(i);
  EXPECT_EQ(r.snapshot(), (std::vector<int>{3}));
}

// --- runner threading ------------------------------------------------------

RunOptions with_mode(RecordMode mode) {
  RunOptions o;
  o.record.mode = mode;
  return o;
}

TEST(RunnerRecord, CountersModeDropsLogsButKeepsAggregatesIdentical) {
  const Policy policy = Policy::green_gpu();
  const ExperimentResult full =
      run_experiment("pathfinder", policy, with_mode(RecordMode::kFull));
  const ExperimentResult counters =
      run_experiment("pathfinder", policy, with_mode(RecordMode::kCounters));

  // Retention changed...
  EXPECT_FALSE(full.iterations.empty());
  EXPECT_FALSE(full.scaler_decisions.empty());
  EXPECT_TRUE(counters.iterations.empty());
  EXPECT_TRUE(counters.scaler_decisions.empty());
  EXPECT_TRUE(counters.governor_decisions.empty());
  // ...counts did not...
  EXPECT_EQ(counters.iteration_count, full.iterations.size());
  EXPECT_EQ(counters.scaler_decision_count, full.scaler_decisions.size());
  EXPECT_EQ(counters.governor_decision_count, full.governor_decisions.size());
  // ...and neither did any physical result (bit-exact).
  EXPECT_EQ(counters.exec_time.get(), full.exec_time.get());
  EXPECT_EQ(counters.gpu_energy.get(), full.gpu_energy.get());
  EXPECT_EQ(counters.cpu_energy.get(), full.cpu_energy.get());
  EXPECT_EQ(counters.final_ratio, full.final_ratio);
  EXPECT_EQ(counters.convergence_iteration, full.convergence_iteration);
}

TEST(RunnerRecord, RingModeRetainsTailOnly) {
  RunOptions o = with_mode(RecordMode::kRing);
  o.record.ring_capacity = 3;
  const ExperimentResult r = run_experiment("pathfinder", Policy::green_gpu(), o);
  ASSERT_GT(r.iteration_count, 3u);
  ASSERT_EQ(r.iterations.size(), 3u);
  // The tail is the *last* iterations, oldest first.
  EXPECT_EQ(r.iterations.back().index, r.iteration_count - 1);
  EXPECT_EQ(r.iterations.front().index, r.iteration_count - 3);
}

TEST(RunnerRecord, FullModeCountsMatchRetention) {
  const ExperimentResult r =
      run_experiment("pathfinder", Policy::green_gpu(), with_mode(RecordMode::kFull));
  EXPECT_EQ(r.iteration_count, r.iterations.size());
  EXPECT_EQ(r.scaler_decision_count, r.scaler_decisions.size());
  EXPECT_EQ(r.governor_decision_count, r.governor_decisions.size());
  EXPECT_EQ(r.fault_event_count, r.fault_events.size());
}

TEST(CampaignRecord, DefaultsToCountersOnly) {
  EXPECT_EQ(CampaignConfig{}.options.record.mode, RecordMode::kCounters);
  EXPECT_EQ(campaign_default_options().record.mode, RecordMode::kCounters);
  // Plain RunOptions keep the seed behaviour (full retention) so tests and
  // single CLI runs see every record.
  EXPECT_EQ(RunOptions{}.record.mode, RecordMode::kFull);
}

}  // namespace
}  // namespace gg::greengpu
