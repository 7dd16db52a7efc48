#include "src/greengpu/multi_division.h"

#include <gtest/gtest.h>

#include <numeric>

namespace gg::greengpu {
namespace {

using namespace gg::literals;

/// Proportional multi-device system: slot i finishes its share in
/// share_i * cost_i (cost = seconds per full iteration on that slot alone).
std::vector<Seconds> run_system(const std::vector<double>& shares,
                                const std::vector<double>& costs) {
  std::vector<Seconds> times(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    times[i] = Seconds{shares[i] * costs[i]};
  }
  return times;
}

double spread(const std::vector<Seconds>& times) {
  double lo = 1e300, hi = 0.0;
  for (const Seconds t : times) {
    if (t.get() <= 0.0) continue;
    lo = std::min(lo, t.get());
    hi = std::max(hi, t.get());
  }
  return hi - lo;
}

TEST(Waterfill, SharesProportionalToRates) {
  const auto s = waterfill_shares({1.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s[0], 0.125);
  EXPECT_DOUBLE_EQ(s[1], 0.375);
  EXPECT_DOUBLE_EQ(s[2], 0.5);
}

TEST(Waterfill, ZeroRatesGiveZeroShares) {
  const auto s = waterfill_shares({0.0, 0.0});
  EXPECT_EQ(s[0], 0.0);
  EXPECT_EQ(s[1], 0.0);
}

TEST(MultiStepDivider, RequiresAtLeastTwoSlots) {
  EXPECT_THROW(MultiStepDivider(1), std::invalid_argument);
}

TEST(MultiStepDivider, InitialSharesSumToOne) {
  MultiStepDivider d(4);
  const auto& s = d.shares();
  EXPECT_NEAR(std::accumulate(s.begin(), s.end(), 0.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s[0], 0.10);
  EXPECT_DOUBLE_EQ(s[1], 0.30);
}

TEST(MultiStepDivider, MovesWorkFromSlowestToFastest) {
  MultiStepDivider d(3);
  // CPU is 6x slower than either GPU.
  const std::vector<double> costs{6.0, 1.0, 1.0};
  const auto before = d.shares();
  d.update(run_system(before, costs));
  const auto& after = d.shares();
  EXPECT_LT(after[0], before[0]);  // slow CPU sheds work
  EXPECT_NEAR(std::accumulate(after.begin(), after.end(), 0.0), 1.0, 1e-12);
}

TEST(MultiStepDivider, BalancesHeterogeneousSlots) {
  MultiStepDivider d(3);
  const std::vector<double> costs{6.0, 1.0, 2.0};  // GPU1 twice as fast as GPU0...
  for (int i = 0; i < 60; ++i) d.update(run_system(d.shares(), costs));
  const auto times = run_system(d.shares(), costs);
  // Balanced within ~one step's worth of the makespan.
  double hi = 0.0;
  for (const Seconds t : times) hi = std::max(hi, t.get());
  EXPECT_LE(spread(times), 0.35 * hi);
  EXPECT_TRUE(d.converged());
}

TEST(MultiStepDivider, SharesStayNonNegative) {
  MultiStepDivider d(3);
  const std::vector<double> costs{100.0, 1.0, 1.0};  // hopeless CPU
  for (int i = 0; i < 40; ++i) d.update(run_system(d.shares(), costs));
  for (double s : d.shares()) EXPECT_GE(s, -1e-12);
  EXPECT_LE(d.shares()[0], 0.01);  // CPU share driven to ~0
}

TEST(MultiStepDivider, TimeCountMismatchThrows) {
  MultiStepDivider d(3);
  EXPECT_THROW(d.update({1_s, 2_s}), std::invalid_argument);
}

TEST(MultiStepDivider, ResetRestoresInitial) {
  MultiStepDivider d(3);
  d.update(run_system(d.shares(), {6.0, 1.0, 1.0}));
  d.reset();
  EXPECT_DOUBLE_EQ(d.shares()[0], 0.10);
  EXPECT_DOUBLE_EQ(d.shares()[1], 0.45);
}

TEST(MultiProfilingDivider, ConvergesToAnalyticShares) {
  MultiProfilingDivider d(3);
  const std::vector<double> costs{6.0, 1.0, 1.0};
  for (int i = 0; i < 8; ++i) d.update(run_system(d.shares(), costs));
  // Equal finish: shares proportional to 1/cost: {1/6, 1, 1}/sum = {1/13, 6/13, 6/13}.
  EXPECT_NEAR(d.shares()[0], 1.0 / 13.0, 1e-6);
  EXPECT_NEAR(d.shares()[1], 6.0 / 13.0, 1e-6);
  EXPECT_NEAR(d.shares()[2], 6.0 / 13.0, 1e-6);
  EXPECT_TRUE(d.converged());
}

TEST(MultiProfilingDivider, HandlesHeterogeneousGpus) {
  MultiProfilingDivider d(4);
  const std::vector<double> costs{8.0, 1.0, 2.0, 4.0};
  for (int i = 0; i < 10; ++i) d.update(run_system(d.shares(), costs));
  const auto times = run_system(d.shares(), costs);
  double hi = 0.0;
  for (const Seconds t : times) hi = std::max(hi, t.get());
  EXPECT_LE(spread(times), 0.02 * hi);  // near-perfect balance
}

TEST(MultiProfilingDivider, CpuCapRespected) {
  MultiProfilingParams p;
  p.max_cpu_share = 0.20;
  MultiProfilingDivider d(2, p);
  const std::vector<double> costs{0.5, 1.0};  // CPU twice as fast as the GPU
  for (int i = 0; i < 8; ++i) d.update(run_system(d.shares(), costs));
  EXPECT_LE(d.shares()[0], 0.20 + 1e-9);
  EXPECT_NEAR(d.shares()[0] + d.shares()[1], 1.0, 1e-9);
}

TEST(MultiProfilingDivider, RatesExposed) {
  MultiProfilingDivider d(2);
  d.update(run_system(d.shares(), {6.0, 1.0}));
  const auto rates = d.rates();
  EXPECT_NEAR(rates[0], 1.0 / 6.0, 1e-9);
  EXPECT_NEAR(rates[1], 1.0, 1e-9);
}

TEST(MultiDividerFactory, ProducesBothKinds) {
  EXPECT_EQ(make_multi_divider(DividerKind::kStep, 3)->name(), "multi-step");
  EXPECT_EQ(make_multi_divider(DividerKind::kProfiling, 3)->name(), "multi-profiling");
  EXPECT_THROW((void)make_multi_divider(DividerKind::kEnergyModel, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace gg::greengpu
