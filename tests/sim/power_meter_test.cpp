#include "src/sim/power_meter.h"

#include <gtest/gtest.h>

namespace gg::sim {
namespace {

using namespace gg::literals;

TEST(EnergyIntegrator, IntegratesConstantPower) {
  EnergyIntegrator e;
  e.advance(2_s, 10_W);
  EXPECT_DOUBLE_EQ(e.energy().get(), 20.0);
}

TEST(EnergyIntegrator, PiecewiseConstant) {
  EnergyIntegrator e;
  e.advance(1_s, 10_W);   // 10 J
  e.advance(3_s, 5_W);    // + 10 J
  e.advance(3_s, 100_W);  // zero-length interval adds nothing
  EXPECT_DOUBLE_EQ(e.energy().get(), 20.0);
  EXPECT_EQ(e.last_time(), 3_s);
}

TEST(EnergyIntegrator, BackwardsTimeThrows) {
  EnergyIntegrator e;
  e.advance(2_s, 1_W);
  EXPECT_THROW(e.advance(1_s, 1_W), std::invalid_argument);
}

TEST(EnergyIntegrator, ResetRebasesTime) {
  EnergyIntegrator e;
  e.advance(2_s, 10_W);
  e.reset(2_s);
  EXPECT_DOUBLE_EQ(e.energy().get(), 0.0);
  e.advance(3_s, 10_W);
  EXPECT_DOUBLE_EQ(e.energy().get(), 10.0);
}

}  // namespace
}  // namespace gg::sim
