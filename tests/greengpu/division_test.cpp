#include "src/greengpu/division.h"

#include <gtest/gtest.h>

#include <numeric>

namespace gg::greengpu {
namespace {

using namespace gg::literals;

DivisionParams default_params() { return DivisionParams{}; }

/// One-GPU update: the CPU's and the GPU's chunk times.
DivisionAction feed(Divider& d, Seconds tc, Seconds tg, Joules energy = Joules{0.0},
                    bool degraded = false) {
  return d.update({tc, tg}, energy, degraded);
}

double cpu_share(const Divider& d) { return d.shares()[0]; }

// --- The one-GPU step rule ---------------------------------------------------

TEST(DivisionStep, CpuSlowerShedsWork) {
  const auto d = division_step(default_params(), 0.30, 20_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kDecreaseCpu);
  EXPECT_NEAR(d.ratio, 0.25, 1e-12);
}

TEST(DivisionStep, CpuFasterGainsWork) {
  const auto d = division_step(default_params(), 0.30, 5_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kIncreaseCpu);
  EXPECT_NEAR(d.ratio, 0.35, 1e-12);
}

TEST(DivisionStep, EqualTimesHold) {
  const auto d = division_step(default_params(), 0.30, 10_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kHold);
  EXPECT_NEAR(d.ratio, 0.30, 1e-12);
}

TEST(DivisionStep, NearEqualTimesHoldWithinTolerance) {
  const auto d = division_step(default_params(), 0.30, Seconds{10.0}, Seconds{10.0001});
  EXPECT_EQ(d.action, DivisionAction::kHold);
}

TEST(DivisionStep, HoldAtLowerBound) {
  const auto d = division_step(default_params(), 0.0, 0_s, 10_s);
  // tc = 0 < tg: wants to increase — allowed.
  EXPECT_EQ(d.action, DivisionAction::kIncreaseCpu);
  EXPECT_NEAR(d.ratio, 0.05, 1e-12);
  // At the bound in the other direction it holds.
  const auto d2 = division_step(default_params(), 0.0, 10_s, 1_s);
  EXPECT_EQ(d2.action, DivisionAction::kHoldAtBound);
}

TEST(DivisionStep, ClampsAtMaxRatio) {
  const auto d = division_step(default_params(), kMaxCpuShare, 1_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kHoldAtBound);
  EXPECT_NEAR(d.ratio, 0.95, 1e-12);
}

TEST(DivisionStep, PaperSafeguardExample) {
  // Section V-B worked example: tc < tg at 10/90; moving to 15/85 predicts
  // tc' = (15/10)tc and tg' = (85/90)tg.  With tc = 9, tg = 10: tc' = 13.5 >
  // tg' = 9.44 — ordering flips, so the division holds.
  const auto d = division_step(default_params(), 0.10, 9_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kHoldSafeguard);
  EXPECT_NEAR(d.ratio, 0.10, 1e-12);
}

TEST(DivisionStep, SafeguardAllowsNonOscillatingMove) {
  // tc = 2, tg = 10 at 10/90: moving to 15/85 predicts tc' = 3 < tg' = 9.44;
  // no flip, so the move proceeds.
  const auto d = division_step(default_params(), 0.10, 2_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kIncreaseCpu);
  EXPECT_NEAR(d.ratio, 0.15, 1e-12);
}

TEST(DivisionStep, SafeguardSymmetricOnDecrease) {
  // CPU slower at 0.20; stepping to 0.15 would flip the ordering.
  // tc = 10, tg = 9.4: tc' = 7.5, tg' = 9.99 -> flip -> hold.
  const auto d = division_step(default_params(), 0.20, 10_s, Seconds{9.4});
  EXPECT_EQ(d.action, DivisionAction::kHoldSafeguard);
}

TEST(DivisionStep, SafeguardDisabledMovesAnyway) {
  DivisionParams p;
  p.safeguard = false;
  const auto d = division_step(p, 0.10, 9_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kIncreaseCpu);
}

TEST(DivisionStep, NegativeTimesThrow) {
  EXPECT_THROW((void)division_step(default_params(), 0.3, Seconds{-1.0}, 1_s),
               std::invalid_argument);
}

TEST(DivisionStep, ZeroCpuTimeGainsWork) {
  // A zero-time side is an extreme imbalance, not a division-by-zero trap.
  const auto d = division_step(default_params(), 0.30, 0_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kIncreaseCpu);
  EXPECT_NEAR(d.ratio, 0.35, 1e-12);
}

TEST(DivisionStep, ZeroGpuTimeShedsWork) {
  const auto d = division_step(default_params(), 0.30, 10_s, 0_s);
  EXPECT_EQ(d.action, DivisionAction::kDecreaseCpu);
  EXPECT_NEAR(d.ratio, 0.25, 1e-12);
}

TEST(DivisionStep, BothTimesZeroHold) {
  const auto d = division_step(default_params(), 0.30, 0_s, 0_s);
  EXPECT_EQ(d.action, DivisionAction::kHold);
  EXPECT_NEAR(d.ratio, 0.30, 1e-12);
}

TEST(DivisionStep, PinnedAtFullCpuHoldsAtBound) {
  // Pinned at the CPU cap, a CPU that finishes instantly still cannot gain
  // work — with or without the safeguard's prediction.
  DivisionParams p;
  p.safeguard = false;
  const auto d = division_step(p, kMaxCpuShare, 0_s, 10_s);
  EXPECT_EQ(d.action, DivisionAction::kHoldAtBound);
  EXPECT_NEAR(d.ratio, kMaxCpuShare, 1e-12);
}

TEST(DivisionStep, PinnedAtZeroCpuHoldsAtBound) {
  const auto d = division_step(default_params(), 0.0, 10_s, 0_s);
  EXPECT_EQ(d.action, DivisionAction::kHoldAtBound);
  EXPECT_NEAR(d.ratio, 0.0, 1e-12);
}

// --- The step divider with one GPU (the paper's tier 1) ----------------------

TEST(DivisionController, ValidatesParams) {
  DivisionParams p;
  p.step = 0.0;
  EXPECT_THROW((StepDivider{2, p}), std::invalid_argument);
  p.step = 1.0;
  EXPECT_THROW((StepDivider{3, p}), std::invalid_argument);
  p = DivisionParams{};
  p.initial_ratio = 0.99;  // above kMaxCpuShare
  EXPECT_THROW((StepDivider{2, p}), std::invalid_argument);
  p.initial_ratio = -0.1;
  EXPECT_THROW((StepDivider{2, p}), std::invalid_argument);
  EXPECT_THROW((StepDivider{1, DivisionParams{}}), std::invalid_argument);
}

TEST(DivisionController, StartsAtInitialRatio) {
  StepDivider c(2, default_params());
  EXPECT_EQ(c.shares(), (std::vector<double>{0.30, 0.70}));
}

/// Simulated proportional system: tc = ratio * cpu_cost, tg = (1-ratio) *
/// gpu_cost.  The controller must converge near the balance point for any
/// cost ratio and initial ratio.
class ConvergenceTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ConvergenceTest, ConvergesNearBalancePoint) {
  const double cpu_cost = std::get<0>(GetParam());   // slowdown factor
  const double initial = std::get<1>(GetParam());
  DivisionParams p;
  p.initial_ratio = initial;
  StepDivider c(2, p);
  for (int iter = 0; iter < 60; ++iter) {
    const double r = cpu_share(c);
    feed(c, Seconds{r * cpu_cost}, Seconds{(1.0 - r) * 1.0});
  }
  EXPECT_TRUE(c.converged());
  // Balance point r* = 1 / (1 + cpu_cost); the converged ratio must be
  // within one step of it.
  const double r_star = 1.0 / (1.0 + cpu_cost);
  EXPECT_NEAR(cpu_share(c), r_star, p.step + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    CostAndStartSweep, ConvergenceTest,
    ::testing::Combine(::testing::Values(1.0, 2.0, 4.0, 6.0, 9.0, 19.0),
                       ::testing::Values(0.0, 0.05, 0.30, 0.50, 0.80)));

TEST(DivisionController, NoOscillationAfterConvergence) {
  StepDivider c(2, default_params());
  const double cpu_cost = 6.0;
  std::vector<double> ratios;
  for (int iter = 0; iter < 40; ++iter) {
    const double r = cpu_share(c);
    ratios.push_back(r);
    feed(c, Seconds{r * cpu_cost}, Seconds{(1.0 - r) * 1.0});
  }
  // Once converged, the ratio must never change again (the safeguard's
  // purpose: no 2-cycle between grid points).
  const double final_r = ratios.back();
  bool settled = false;
  for (double r : ratios) {
    if (r == final_r) settled = true;
    if (settled) {
      EXPECT_DOUBLE_EQ(r, final_r);
    }
  }
}

TEST(DivisionController, WithoutSafeguardOscillates) {
  DivisionParams p;
  p.safeguard = false;
  StepDivider c(2, p);
  // Optimum between grid points: cpu_cost = 6 -> r* = 1/7 ~ 0.143.
  std::vector<double> ratios;
  for (int iter = 0; iter < 40; ++iter) {
    const double r = cpu_share(c);
    ratios.push_back(r);
    feed(c, Seconds{r * 6.0}, Seconds{(1.0 - r) * 1.0});
  }
  // The tail must alternate between 0.10 and 0.15.
  const std::size_t n = ratios.size();
  EXPECT_NE(ratios[n - 1], ratios[n - 2]);
  EXPECT_EQ(ratios[n - 1], ratios[n - 3]);
}

TEST(DivisionController, HistoryRecordsDecisions) {
  // Each update reports its decision (the runner records it in the
  // iteration's IterationRecord) and the shares it enforces next.
  StepDivider c(2, default_params());
  EXPECT_EQ(feed(c, 20_s, 10_s), DivisionAction::kDecreaseCpu);
  EXPECT_NEAR(cpu_share(c), 0.25, 1e-12);
  EXPECT_EQ(feed(c, 1_s, 10_s), DivisionAction::kIncreaseCpu);
  EXPECT_NEAR(cpu_share(c), 0.30, 1e-12);
  EXPECT_EQ(c.shares()[1], 1.0 - c.shares()[0]);
}

TEST(DivisionController, DegradedFeedbackHoldsWithoutLearning) {
  StepDivider c(2, default_params());
  const std::vector<double> before = c.shares();
  // 20 s vs 1 s would normally shed CPU work, but the times are fault noise.
  EXPECT_EQ(feed(c, 20_s, 1_s, Joules{0.0}, /*degraded=*/true),
            DivisionAction::kHoldDegraded);
  EXPECT_EQ(c.shares(), before);
  EXPECT_FALSE(c.converged(1));  // no evidence either way
  // The next informative iteration still moves.
  EXPECT_EQ(feed(c, 20_s, 1_s), DivisionAction::kDecreaseCpu);
}

TEST(DivisionController, DegradedFeedbackPreservesConvergenceStreak) {
  StepDivider c(2, default_params());
  feed(c, 10_s, 10_s);
  feed(c, 10_s, 10_s);
  ASSERT_TRUE(c.converged(2));
  feed(c, 0_s, 0_s, Joules{0.0}, /*degraded=*/true);
  EXPECT_TRUE(c.converged(2));  // a faulted iteration does not reset it
}

TEST(DivisionController, ResetRestoresInitialState) {
  StepDivider c(2, default_params());
  feed(c, 20_s, 10_s);
  c.reset();
  EXPECT_EQ(c.shares(), (std::vector<double>{0.30, 0.70}));
  EXPECT_FALSE(c.converged());
}

// --- Model dividers with one GPU ---------------------------------------------

/// Proportional system: tc = r * cpu_cost, tg = (1-r); energy model
/// E = P * makespan + C * r (what the EnergyModelDivider assumes; the real
/// simulator produces exactly this family of curves for profiled workloads).
struct FakeSystem {
  double cpu_cost{6.0};
  double p_sys{200.0};
  double c_cpu{20.0};

  DivisionAction step(Divider& d, Seconds cpu_noise = Seconds{0.0},
                      bool degraded = false) const {
    const double r = d.shares()[0];
    const double tc = r * cpu_cost;
    const double tg = 1.0 - r;
    const double makespan = std::max(tc, tg);
    return feed(d, Seconds{tc} + cpu_noise, Seconds{tg},
                Joules{p_sys * makespan + c_cpu * r}, degraded);
  }
};

TEST(ProfilingDivider, JumpsToBalancePointAfterOneProbe) {
  ProfilingDivider d(2, default_params());
  const FakeSystem sys;
  sys.step(d);
  // Balance point for cost 6 is 1/7.
  EXPECT_NEAR(cpu_share(d), 1.0 / 7.0, 1e-9);
}

TEST(ProfilingDivider, SettlesAndReportsConvergence) {
  ProfilingDivider d(2, default_params());
  const FakeSystem sys;
  for (int i = 0; i < 5; ++i) sys.step(d);
  EXPECT_TRUE(d.converged());
  EXPECT_NEAR(cpu_share(d), 1.0 / 7.0, 1e-6);
}

TEST(ProfilingDivider, TracksRateChange) {
  ProfilingDivider d(2, default_params());
  FakeSystem sys;
  for (int i = 0; i < 5; ++i) sys.step(d);
  // CPU becomes 3x faster mid-run (e.g. another process released the cores).
  sys.cpu_cost = 2.0;
  for (int i = 0; i < 12; ++i) sys.step(d);
  EXPECT_NEAR(cpu_share(d), 1.0 / 3.0, 0.01);
}

TEST(ProfilingDivider, ExposesRateEstimates) {
  ProfilingDivider d(2, default_params());
  const FakeSystem sys;
  EXPECT_EQ(d.rate(0), 0.0);  // unobserved
  sys.step(d);
  EXPECT_NEAR(d.rate(0), 1.0 / sys.cpu_cost, 1e-9);
  EXPECT_NEAR(d.rate(1), 1.0, 1e-9);
}

TEST(ProfilingDivider, RespectsMaxRatio) {
  ProfilingDivider d(2, default_params());
  FakeSystem sys;
  sys.cpu_cost = 0.01;  // CPU 100x as fast: unconstrained target is ~0.99
  for (int i = 0; i < 5; ++i) sys.step(d);
  EXPECT_DOUBLE_EQ(cpu_share(d), kMaxCpuShare);
  EXPECT_EQ(d.shares()[1], 1.0 - kMaxCpuShare);
}

TEST(ProfilingDivider, ValidatesParams) {
  EXPECT_THROW((ProfilingDivider{1, default_params()}), std::invalid_argument);
  // The probe must leave both sides a share to time; an initial ratio
  // outside (0, 1) falls back to 0.30.
  DivisionParams p;
  p.initial_ratio = 0.0;
  EXPECT_DOUBLE_EQ(cpu_share(ProfilingDivider(2, p)), 0.30);
  p.initial_ratio = 1.0;
  EXPECT_DOUBLE_EQ(cpu_share(ProfilingDivider(2, p)), 0.30);
  p.initial_ratio = 0.4;
  EXPECT_DOUBLE_EQ(cpu_share(ProfilingDivider(2, p)), 0.4);
}

TEST(ProfilingDivider, ResetRestoresProbe) {
  ProfilingDivider d(2, default_params());
  const FakeSystem sys;
  sys.step(d);
  d.reset();
  EXPECT_DOUBLE_EQ(cpu_share(d), 0.30);
  EXPECT_EQ(d.rate(0), 0.0);
}

TEST(EnergyModelDivider, RecoversModelParameters) {
  EnergyModelDivider d;
  const FakeSystem sys;
  for (int i = 0; i < 6; ++i) sys.step(d);
  EXPECT_NEAR(d.fitted_system_power(), sys.p_sys, 0.5);
  EXPECT_NEAR(d.fitted_cpu_share_cost(), sys.c_cpu, 0.5);
}

TEST(EnergyModelDivider, FindsEnergyMinimumNotTimeBalance) {
  // With a large CPU-share cost the energy optimum sits BELOW the
  // time-balance point — the distinction between Qilin's objective and
  // GreenGPU's.
  EnergyModelDivider d;
  FakeSystem sys;
  sys.c_cpu = 400.0;  // very expensive CPU participation
  for (int i = 0; i < 8; ++i) sys.step(d);
  // Analytic optimum: E(r) = 200*max(6r, 1-r) + 400r.  On [0, 1/7] the
  // slope is -200 + 400 > 0, so r* = 0.
  EXPECT_NEAR(cpu_share(d), 0.0, 0.011);
}

TEST(EnergyModelDivider, MatchesBalanceWhenShareCostSmall) {
  EnergyModelDivider d;
  const FakeSystem sys;  // modest c_cpu
  for (int i = 0; i < 8; ++i) sys.step(d);
  // Optimum just below the balance point 1/7.
  EXPECT_GT(cpu_share(d), 0.08);
  EXPECT_LE(cpu_share(d), 1.0 / 7.0 + 0.011);
  EXPECT_TRUE(d.converged());
}

TEST(EnergyModelDivider, SecondIterationProbesHigh) {
  EnergyModelDivider d;
  const FakeSystem sys;
  EXPECT_DOUBLE_EQ(cpu_share(d), 0.15);
  sys.step(d);
  EXPECT_DOUBLE_EQ(cpu_share(d), 0.45);
}

TEST(EnergyModelDivider, ValidatesParams) {
  // The model is fitted over the CPU share against one GPU: no N-GPU form.
  EXPECT_THROW((EnergyModelDivider{3}), std::invalid_argument);
  EXPECT_THROW((EnergyModelDivider{1}), std::invalid_argument);
  EXPECT_NO_THROW((EnergyModelDivider{2}));
}

TEST(EnergyModelDivider, ResetClearsFit) {
  EnergyModelDivider d;
  const FakeSystem sys;
  for (int i = 0; i < 4; ++i) sys.step(d);
  d.reset();
  EXPECT_DOUBLE_EQ(cpu_share(d), 0.15);
  EXPECT_EQ(d.fitted_system_power(), 0.0);
}

TEST(DividerKindStrings, RoundTripAndAliases) {
  for (auto kind :
       {DividerKind::kStep, DividerKind::kProfiling, DividerKind::kEnergyModel}) {
    EXPECT_EQ(divider_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(divider_from_string("qilin"), DividerKind::kProfiling);
  EXPECT_EQ(divider_from_string("energy"), DividerKind::kEnergyModel);
  EXPECT_THROW((void)divider_from_string("bogus"), std::invalid_argument);
}

TEST(DividerFactory, HonoursStepParams) {
  DivisionParams p;
  p.initial_ratio = 0.40;
  const auto step = make_divider(DividerKind::kStep, 2, p);
  EXPECT_DOUBLE_EQ(cpu_share(*step), 0.40);
  EXPECT_EQ(step->name(), "step");
  const auto qilin = make_divider(DividerKind::kProfiling, 2, p);
  EXPECT_DOUBLE_EQ(cpu_share(*qilin), 0.40);  // probe inherits the initial ratio
  const auto energy = make_divider(DividerKind::kEnergyModel, 2, p);
  EXPECT_EQ(energy->name(), "energy-model");
}

TEST(DividerFactory, BuildsEveryKindAtEverySlotCount) {
  for (const std::size_t slots : {2u, 3u, 5u}) {
    EXPECT_EQ(make_divider(DividerKind::kStep, slots, {})->name(), "step");
    EXPECT_EQ(make_divider(DividerKind::kProfiling, slots, {})->name(), "qilin-profiling");
    EXPECT_EQ(make_divider(DividerKind::kStep, slots, {})->shares().size(), slots);
  }
  EXPECT_THROW((void)make_divider(DividerKind::kEnergyModel, 3, {}), std::invalid_argument);
}

/// All dividers, driven by the same proportional system, must end within a
/// step of the balance point and report convergence.
class AnyDividerTest : public ::testing::TestWithParam<DividerKind> {};

TEST_P(AnyDividerTest, ConvergesOnProportionalSystem) {
  const auto divider = make_divider(GetParam(), 2, DivisionParams{});
  const FakeSystem sys;
  for (int i = 0; i < 25; ++i) sys.step(*divider);
  EXPECT_TRUE(divider->converged());
  EXPECT_NEAR(cpu_share(*divider), 1.0 / 7.0, 0.06);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AnyDividerTest,
                         ::testing::Values(DividerKind::kStep, DividerKind::kProfiling,
                                           DividerKind::kEnergyModel));

TEST_P(AnyDividerTest, DegradedFeedbackHoldsTheRatio) {
  const auto divider = make_divider(GetParam(), 2, DivisionParams{});
  const FakeSystem sys;
  for (int i = 0; i < 5; ++i) sys.step(*divider);
  const std::vector<double> before = divider->shares();
  // A wild fault-noise outlier on a degraded iteration.
  EXPECT_EQ(sys.step(*divider, Seconds{100.0}, /*degraded=*/true),
            DivisionAction::kHoldDegraded);
  EXPECT_EQ(divider->shares(), before);
}

// --- N GPUs ------------------------------------------------------------------

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

DivisionAction step_system(Divider& d, const std::vector<double>& costs) {
  return d.update(run_system(d.shares(), costs), Joules{0.0}, false);
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

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

TEST(Waterfill, SharesProportionalToRates) {
  // Qilin's equal-finish point: once every slot is timed, the shares are
  // the slots' rates over their sum.  Times that make the rates {1, 3, 4}:
  ProfilingDivider d(3, default_params());
  const std::vector<double> rates{1.0, 3.0, 4.0};
  std::vector<Seconds> times(3);
  for (std::size_t i = 0; i < 3; ++i) times[i] = Seconds{d.shares()[i] / rates[i]};
  d.update(times, Joules{0.0}, false);
  EXPECT_NEAR(d.shares()[0], 0.125, 1e-12);
  EXPECT_NEAR(d.shares()[1], 0.375, 1e-12);
  EXPECT_NEAR(d.shares()[2], 0.5, 1e-12);
}

TEST(MultiStepDivider, RequiresAtLeastTwoSlots) {
  EXPECT_THROW((StepDivider{1, default_params()}), std::invalid_argument);
}

TEST(MultiStepDivider, InitialSharesSumToOne) {
  StepDivider d(4, default_params());
  const auto& s = d.shares();
  EXPECT_NEAR(sum(s), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s[0], 0.10);
  EXPECT_DOUBLE_EQ(s[1], 0.30);
}

TEST(MultiStepDivider, MovesWorkFromSlowestToFastest) {
  StepDivider d(3, default_params());
  // CPU is 6x slower than either GPU.
  const std::vector<double> costs{6.0, 1.0, 1.0};
  const auto before = d.shares();
  EXPECT_EQ(step_system(d, costs), DivisionAction::kDecreaseCpu);
  const auto& after = d.shares();
  EXPECT_LT(after[0], before[0]);  // slow CPU sheds work
  EXPECT_NEAR(sum(after), 1.0, 1e-12);
}

TEST(MultiStepDivider, BalancesHeterogeneousSlots) {
  StepDivider d(3, default_params());
  const std::vector<double> costs{6.0, 1.0, 2.0};  // GPU1 twice as fast as GPU0...
  for (int i = 0; i < 60; ++i) step_system(d, costs);
  const auto times = run_system(d.shares(), costs);
  // Balanced within ~one step's worth of the makespan.
  double hi = 0.0;
  for (const Seconds t : times) hi = std::max(hi, t.get());
  EXPECT_LE(spread(times), 0.35 * hi);
  EXPECT_TRUE(d.converged());
}

TEST(MultiStepDivider, SharesStayNonNegative) {
  StepDivider d(3, default_params());
  const std::vector<double> costs{100.0, 1.0, 1.0};  // hopeless CPU
  for (int i = 0; i < 40; ++i) step_system(d, costs);
  for (double s : d.shares()) EXPECT_GE(s, -1e-12);
  EXPECT_LE(d.shares()[0], 0.01);  // CPU share driven to ~0
}

TEST(MultiStepDivider, TimeCountMismatchThrows) {
  StepDivider d(3, default_params());
  EXPECT_THROW(d.update({1_s, 2_s}, Joules{0.0}, false), std::invalid_argument);
  EXPECT_THROW(d.update({1_s, 2_s, Seconds{-1.0}}, Joules{0.0}, false),
               std::invalid_argument);
}

TEST(MultiStepDivider, ResetRestoresInitial) {
  StepDivider d(3, default_params());
  step_system(d, {6.0, 1.0, 1.0});
  d.reset();
  EXPECT_DOUBLE_EQ(d.shares()[0], 0.10);
  EXPECT_DOUBLE_EQ(d.shares()[1], 0.45);
}

TEST(MultiStepDivider, HonoursStepAndSafeguard) {
  // The N-GPU step divider reads the same DivisionParams as the one-GPU one.
  // At {0.10, 0.45, 0.45} these costs make GPU 1 the straggler (0.9 s) and
  // GPU 0 the fastest (0.45 s); moving 0.15 between them balances the pair.
  const std::vector<double> costs{5.0, 1.0, 2.0};
  DivisionParams big;
  big.step = 0.2;
  StepDivider small_step(3, default_params());
  StepDivider big_step(3, big);
  EXPECT_EQ(step_system(small_step, costs), DivisionAction::kHold);  // CPU untouched
  step_system(big_step, costs);
  EXPECT_NEAR(small_step.shares()[2], 0.45 - 0.05, 1e-12);
  // The limiter caps the 0.2 step at the balance amount...
  EXPECT_NEAR(big_step.shares()[2], 0.45 - 0.15, 1e-12);
  // ...and without the safeguard the full step overshoots it.
  big.safeguard = false;
  StepDivider unlimited(3, big);
  step_system(unlimited, costs);
  EXPECT_NEAR(unlimited.shares()[2], 0.45 - 0.2, 1e-12);
  EXPECT_NEAR(unlimited.shares()[1], 0.45 + 0.2, 1e-12);
}

TEST(MultiProfilingDivider, ConvergesToAnalyticShares) {
  ProfilingDivider d(3, default_params());
  const std::vector<double> costs{6.0, 1.0, 1.0};
  for (int i = 0; i < 8; ++i) step_system(d, costs);
  // Equal finish: shares proportional to 1/cost: {1/6, 1, 1}/sum = {1/13, 6/13, 6/13}.
  EXPECT_NEAR(d.shares()[0], 1.0 / 13.0, 1e-6);
  EXPECT_NEAR(d.shares()[1], 6.0 / 13.0, 1e-6);
  EXPECT_NEAR(d.shares()[2], 6.0 / 13.0, 1e-6);
  EXPECT_TRUE(d.converged());
}

TEST(MultiProfilingDivider, HandlesHeterogeneousGpus) {
  ProfilingDivider d(4, default_params());
  const std::vector<double> costs{8.0, 1.0, 2.0, 4.0};
  for (int i = 0; i < 10; ++i) step_system(d, costs);
  const auto times = run_system(d.shares(), costs);
  double hi = 0.0;
  for (const Seconds t : times) hi = std::max(hi, t.get());
  EXPECT_LE(spread(times), 0.02 * hi);  // near-perfect balance
}

TEST(MultiProfilingDivider, CpuCapRespected) {
  ProfilingDivider d(3, default_params());
  const std::vector<double> costs{0.01, 1.0, 2.0};  // CPU 100x as fast as GPU 0
  for (int i = 0; i < 8; ++i) step_system(d, costs);
  EXPECT_DOUBLE_EQ(d.shares()[0], kMaxCpuShare);
  EXPECT_NEAR(sum(d.shares()), 1.0, 1e-9);
  // The CPU's excess goes to the GPUs in proportion to their rates.
  EXPECT_NEAR(d.shares()[1], 2.0 * d.shares()[2], 1e-9);
}

TEST(MultiProfilingDivider, RatesExposed) {
  ProfilingDivider d(3, default_params());
  step_system(d, {6.0, 1.0, 2.0});
  EXPECT_NEAR(d.rate(0), 1.0 / 6.0, 1e-9);
  EXPECT_NEAR(d.rate(1), 1.0, 1e-9);
  EXPECT_NEAR(d.rate(2), 0.5, 1e-9);
}

}  // namespace
}  // namespace gg::greengpu
