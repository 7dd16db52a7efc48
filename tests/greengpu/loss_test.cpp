#include "src/greengpu/loss.h"

#include <gtest/gtest.h>

#include "src/sim/dvfs.h"

namespace gg::greengpu {
namespace {

TEST(UmeanTable, EndpointsPerPaper) {
  // "We assume the peak frequency is suitable for utilization 100%.  The
  // lowest frequency is suitable for utilization 0%." (Section V-A)
  const auto u = umean_table(sim::geforce8800_memory_table());
  ASSERT_EQ(u.size(), 6u);
  EXPECT_DOUBLE_EQ(u.front(), 1.0);
  EXPECT_DOUBLE_EQ(u.back(), 0.0);
}

TEST(UmeanTable, LinearMapping) {
  const auto u = umean_table(sim::geforce8800_memory_table());
  // Equal 80 MHz spacing -> equal 0.2 umean spacing.
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(u[i], 1.0 - 0.2 * static_cast<double>(i), 1e-12);
  }
}

TEST(RawLoss, TableIUpperBranch) {
  // u > umean: performance loss only, equal to the gap.
  const LevelLoss l = raw_loss(0.9, 0.6);
  EXPECT_DOUBLE_EQ(l.performance, 0.3);
  EXPECT_DOUBLE_EQ(l.energy, 0.0);
}

TEST(RawLoss, TableILowerBranch) {
  // u < umean: energy loss only.
  const LevelLoss l = raw_loss(0.2, 0.6);
  EXPECT_DOUBLE_EQ(l.energy, 0.4);
  EXPECT_DOUBLE_EQ(l.performance, 0.0);
}

TEST(RawLoss, ExactMatchIsZero) {
  const LevelLoss l = raw_loss(0.5, 0.5);
  EXPECT_EQ(l.energy, 0.0);
  EXPECT_EQ(l.performance, 0.0);
}

TEST(RawLoss, InputsClampedToUnitRange) {
  const LevelLoss l = raw_loss(1.7, 0.5);
  EXPECT_DOUBLE_EQ(l.performance, 0.5);
  const LevelLoss l2 = raw_loss(-0.3, 0.5);
  EXPECT_DOUBLE_EQ(l2.energy, 0.5);
}

TEST(ComponentLoss, Equation1Blend) {
  // l = alpha*l_e + (1-alpha)*l_p with the paper's alpha_c = 0.15.
  EXPECT_DOUBLE_EQ(component_loss(0.2, 0.6, 0.15), 0.15 * 0.4);
  EXPECT_DOUBLE_EQ(component_loss(0.9, 0.6, 0.15), 0.85 * 0.3);
}

TEST(ComponentLoss, SmallAlphaFavoursPerformance) {
  // alpha_m = 0.02: a performance shortfall costs 49x an equal energy
  // surplus, so the memory scaler is conservative.
  const double energy_side = component_loss(0.5, 0.6, 0.02);
  const double perf_side = component_loss(0.7, 0.6, 0.02);
  EXPECT_GT(perf_side / energy_side, 40.0);
}

TEST(ComponentLoss, AlphaOutOfRangeThrows) {
  EXPECT_THROW((void)component_loss(0.5, 0.5, -0.1), std::invalid_argument);
  EXPECT_THROW((void)component_loss(0.5, 0.5, 1.1), std::invalid_argument);
}

TEST(TotalLoss, Equation3Blend) {
  EXPECT_DOUBLE_EQ(total_loss(0.4, 0.8, 0.3), 0.3 * 0.4 + 0.7 * 0.8);
}

TEST(TotalLoss, PhiBoundsChecked) {
  EXPECT_THROW((void)total_loss(0.1, 0.1, -0.01), std::invalid_argument);
  EXPECT_THROW((void)total_loss(0.1, 0.1, 1.01), std::invalid_argument);
}

TEST(UpdatedWeight, Equation4) {
  // w' = w * (1 - (1-beta)*loss) with beta = 0.2.
  EXPECT_DOUBLE_EQ(updated_weight(1.0, 0.5, 0.2), 1.0 - 0.8 * 0.5);
}

TEST(UpdatedWeight, ZeroLossKeepsWeight) {
  EXPECT_DOUBLE_EQ(updated_weight(0.7, 0.0, 0.2), 0.7);
}

TEST(UpdatedWeight, FullLossLeavesBetaFraction) {
  EXPECT_NEAR(updated_weight(1.0, 1.0, 0.2), 0.2, 1e-12);
}

TEST(UpdatedWeight, ParameterValidation) {
  EXPECT_THROW((void)updated_weight(1.0, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)updated_weight(1.0, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW((void)updated_weight(1.0, -0.1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)updated_weight(1.0, 1.1, 0.5), std::invalid_argument);
}

// Property sweep: for any utilization, exactly one loss side is non-zero and
// both are bounded by 1.
class LossPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(LossPropertyTest, LossesAreComplementaryAndBounded) {
  const double u = GetParam();
  for (double umean : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const LevelLoss l = raw_loss(u, umean);
    EXPECT_GE(l.energy, 0.0);
    EXPECT_GE(l.performance, 0.0);
    EXPECT_LE(l.energy, 1.0);
    EXPECT_LE(l.performance, 1.0);
    EXPECT_TRUE(l.energy == 0.0 || l.performance == 0.0);
    EXPECT_NEAR(l.energy + l.performance, std::fabs(u - umean), 1e-12);
  }
}

TEST_P(LossPropertyTest, ComponentLossMonotoneInDistance) {
  const double u = GetParam();
  // Among levels on the same side of u, loss grows with |u - umean|.
  double prev_above = -1.0;
  for (double umean = u; umean <= 1.0; umean += 0.1) {
    const double l = component_loss(u, umean, 0.15);
    EXPECT_GE(l, prev_above);
    prev_above = l;
  }
}

INSTANTIATE_TEST_SUITE_P(UtilizationSweep, LossPropertyTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace gg::greengpu
