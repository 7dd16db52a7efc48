#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gg {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, ResetClearsState) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Percentile, EmptyReturnsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50), 2.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25), 2.5);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 100), 9.0);
}

TEST(Mean, KnownValue) { EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0); }
TEST(Mean, EmptyReturnsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.update(10.0), 10.0);
  EXPECT_TRUE(e.seeded());
}

TEST(Ewma, BlendsSubsequentSamples) {
  Ewma e(0.5);
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.update(20.0), 15.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(Ewma, AlphaOneTracksInput) {
  Ewma e(1.0);
  e.update(1.0);
  EXPECT_DOUBLE_EQ(e.update(7.0), 7.0);
}

}  // namespace
}  // namespace gg
