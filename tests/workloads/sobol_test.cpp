#include "src/workloads/sobol.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "tests/workloads/kernel_oracles.h"

namespace gg::workloads {
namespace {

TEST(Sobol, DimensionBoundsChecked) {
  EXPECT_THROW(Sobol(0), std::invalid_argument);
  EXPECT_THROW(Sobol(9), std::invalid_argument);
  Sobol s(8);
  EXPECT_EQ(s.dimensions(), 8u);
  EXPECT_THROW((void)s.sample(1, 8), std::out_of_range);
}

TEST(Sobol, PointZeroIsOrigin) {
  Sobol s(4);
  for (std::size_t d = 0; d < 4; ++d) EXPECT_EQ(s.sample(0, d), 0.0);
}

TEST(Sobol, DimensionZeroIsVanDerCorput) {
  Sobol s(1);
  for (std::uint64_t i = 1; i < 500; ++i) {
    EXPECT_NEAR(s.sample(i, 0), radical_inverse(i), 1e-15) << i;
  }
}

TEST(Sobol, FirstDimensionOneValuesMatchClassicSequence) {
  // The second Sobol dimension's first points are the known
  // 0, 1/2, 1/4, 3/4, 3/8, 7/8, ... (Gray-code order with m = {1, 3}).
  Sobol s(2);
  EXPECT_DOUBLE_EQ(s.sample(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.sample(2, 1), 0.75);
  EXPECT_DOUBLE_EQ(s.sample(3, 1), 0.25);
}

TEST(Sobol, SamplesInUnitInterval) {
  Sobol s(8);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (std::size_t d = 0; d < 8; ++d) {
      const double x = s.sample(i, d);
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(Sobol, FirstPowerOfTwoBlockIsStratified) {
  // The first 2^k points of any dimension hit every dyadic interval
  // [j/2^k, (j+1)/2^k) exactly once — the defining (0,1)-sequence property.
  Sobol s(8);
  constexpr int k = 7;
  constexpr std::uint64_t n = 1ULL << k;
  for (std::size_t d = 0; d < 8; ++d) {
    std::set<std::uint64_t> cells;
    for (std::uint64_t i = 0; i < n; ++i) {
      cells.insert(static_cast<std::uint64_t>(s.sample(i, d) * n));
    }
    EXPECT_EQ(cells.size(), n) << "dimension " << d;
  }
}

TEST(Sobol, BeatsPseudorandomUniformity) {
  Sobol s(3);
  const double sobol_dev = uniformity_deviation(s, 2, 4096);
  // Pseudorandom reference deviation at the same sample count.
  Rng rng(7);
  constexpr int kAnchors = 64;
  double worst = 0.0;
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.uniform();
  for (int a = 1; a <= kAnchors; ++a) {
    const double threshold = static_cast<double>(a) / kAnchors;
    std::size_t below = 0;
    for (double x : xs) {
      if (x < threshold) ++below;
    }
    worst = std::max(worst, std::fabs(below / 4096.0 - threshold));
  }
  EXPECT_LT(sobol_dev, worst / 2.0);
  EXPECT_LT(sobol_dev, 0.002);
}

TEST(Sobol, PointReturnsAllDimensions) {
  Sobol s(5);
  const auto p = sobol_point(s, 17);
  ASSERT_EQ(p.size(), 5u);
  for (std::size_t d = 0; d < 5; ++d) EXPECT_DOUBLE_EQ(p[d], s.sample(17, d));
}

TEST(Sobol, DimensionsAreDistinct) {
  Sobol s(4);
  // Different dimensions must not be identical streams.
  // (Occasional coincidences are inherent — e.g. every dimension maps
  // index 1 to 0.5 — but the streams must diverge overall.)
  int equal = 0;
  for (std::uint64_t i = 1; i < 200; ++i) {
    if (s.sample(i, 1) == s.sample(i, 2)) ++equal;
  }
  EXPECT_LT(equal, 20);
}

}  // namespace
}  // namespace gg::workloads
