// The nbody, kmeans, bfs and QG fast paths equal the straight-line formulas
// bit for bit: `advance_bodies` (two bodies per SSE2 instruction plus a
// scalar tail) against the one-body loop, `assign_points` (two centroids per
// SSE2 instruction plus a scalar tail) against the one-centroid loop, bfs'
// flat graph construction and its fixed-point exit against the per-node
// vectors and the every-round relaxation, and `Sobol::sample`/`Sobol::fill`
// (Gray-code prefix XORs) against the natural-order bit loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/job_pool.h"
#include "src/common/rng.h"
#include "src/cudalite/api.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/sim/platform.h"
#include "src/workloads/bfs.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/nbody.h"
#include "src/workloads/sobol.h"
#include "tests/workloads/kernel_oracles.h"

namespace gg::workloads {
namespace {

/// Random bodies, and output buffers pre-filled with a sentinel so an
/// unwritten body shows up as a mismatch.
struct Bodies {
  Bodies(std::size_t bodies, std::uint64_t seed)
      : n(bodies),
        pos(3 * n),
        vel(3 * n),
        mass(n),
        pos_out(3 * n, -7.0),
        vel_out(3 * n, -7.0) {
    Rng rng(seed);
    for (std::size_t i = 0; i < 3 * n; ++i) {
      pos[i] = rng.uniform(-1.0, 1.0);
      vel[i] = rng.uniform(-0.1, 0.1);
    }
    for (double& m : mass) m = rng.uniform(0.5, 1.5);
  }
  [[nodiscard]] NbodyStep step() {
    return {pos.data(), vel.data(), mass.data(), pos_out.data(), vel_out.data(), n, 1e-3};
  }

  std::size_t n;
  std::vector<double> pos, vel, mass, pos_out, vel_out;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(NbodyFastPath, WholeRangeMatchesScalarOracleBitForBit) {
  for (const std::size_t n : {1, 2, 3, 5, 64, 1023}) {
    Bodies fast(n, 100 + n), slow(n, 100 + n);
    // Two timesteps: the second starts from the first's output.
    for (int step = 0; step < 2; ++step) {
      advance_bodies(fast.step(), 0, n);
      oracle::nbody_step(slow.step(), 0, n);
      ASSERT_TRUE(same_bits(fast.pos_out, slow.pos_out)) << "n=" << n << " step " << step;
      ASSERT_TRUE(same_bits(fast.vel_out, slow.vel_out)) << "n=" << n << " step " << step;
      std::swap(fast.pos, fast.pos_out);
      std::swap(fast.vel, fast.vel_out);
      std::swap(slow.pos, slow.pos_out);
      std::swap(slow.vel, slow.vel_out);
    }
  }
}

TEST(NbodyFastPath, AnySplitMatchesScalarOracleBitForBit) {
  // Pool chunks start and end anywhere: odd and even chunk lengths, odd
  // starts, empty chunks and single bodies all must give the oracle's bits;
  // so must verify()'s fixed blocks of Nbody::kVerifyBlock bodies.  Three
  // timesteps: each later one starts from the previous output.
  std::vector<std::vector<std::size_t>> splits = {
      {0, 1, 64},         {0, 31, 64},     {0, 32, 33, 64}, {0, 7, 7, 20, 63, 64},
      {0, 3, 6, 9, 64},   {0, 64},         {0, 511, 1023},  {0, 1, 2, 500, 1001, 1023},
      {0, 340, 682, 1023}};
  for (const std::size_t n : {257, 1024}) {
    std::vector<std::size_t> blocks;
    for (std::size_t b = 0; b < n; b += Nbody::kVerifyBlock) blocks.push_back(b);
    blocks.push_back(n);
    splits.push_back(blocks);
  }
  for (const auto& cuts : splits) {
    const std::size_t n = cuts.back();
    Bodies fast(n, 7), slow(n, 7);
    for (int step = 0; step < 3; ++step) {
      for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        advance_bodies(fast.step(), cuts[k], cuts[k + 1]);
      }
      oracle::nbody_step(slow.step(), 0, n);
      EXPECT_TRUE(same_bits(fast.pos_out, slow.pos_out))
          << "n=" << n << " cuts " << cuts.size() << " step " << step;
      EXPECT_TRUE(same_bits(fast.vel_out, slow.vel_out))
          << "n=" << n << " cuts " << cuts.size() << " step " << step;
      std::swap(fast.pos, fast.pos_out);
      std::swap(fast.vel, fast.vel_out);
      std::swap(slow.pos, slow.pos_out);
      std::swap(slow.vel, slow.vel_out);
    }
  }
}

TEST(NbodyFastPath, FullRunVerifiesAtAnyPoolSize) {
  NbodyConfig cfg;
  cfg.bodies = 257;
  cfg.iterations = 6;
  for (const std::size_t workers : {1, 2, 3}) {
    Nbody wl(cfg);
    greengpu::RunOptions options;
    options.pool_workers = workers;
    const auto r = greengpu::run_experiment(wl, greengpu::Policy::best_performance(), options);
    EXPECT_TRUE(r.verified) << workers << " pool workers";
  }
}

/// Random points and centroids in a few blobs, with exact ties planted: the
/// last centroid repeats the first (a tie the lower index must win) and
/// every seventh point sits on a centroid.  One point is NaN, whose
/// distances never compare below anything.
struct KmeansCase {
  KmeansCase(std::size_t points, std::size_t dimensions, std::size_t clusters,
             std::uint64_t seed)
      : n(points),
        dims(dimensions),
        k(clusters),
        pts(points * dimensions),
        cents(clusters * dimensions) {
    Rng rng(seed);
    for (double& c : cents) c = rng.uniform(-4.0, 4.0);
    if (k > 1) std::copy(cents.begin(), cents.begin() + dims, cents.end() - dims);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t near = rng.uniform_int(k);
      for (std::size_t d = 0; d < dims; ++d) {
        pts[i * dims + d] =
            cents[near * dims + d] + (i % 7 == 0 ? 0.0 : rng.normal(0.0, 1.5));
      }
    }
    pts[3 * dims] = std::nan("");
  }
  std::size_t n, dims, k;
  std::vector<double> pts, cents;
};

TEST(KmeansFastPath, AnySplitMatchesScalarOracleBitForBit) {
  constexpr std::size_t kPoints = 257;
  const std::vector<std::vector<std::size_t>> splits = {
      {0, kPoints}, {0, 1, kPoints}, {0, 3, 4, 100, 101, 256, kPoints}, {0, 128, 128, kPoints}};
  for (const std::size_t k : {1, 3, 8, 13}) {
    for (const std::size_t dims : {1, 5, 8}) {
      const KmeansCase c(kPoints, dims, k, 1000 + 10 * k + dims);
      std::vector<int> want(kPoints, -1);
      oracle::kmeans_assign(c.pts.data(), c.cents.data(), dims, k, want.data(), 0, kPoints);
      for (const auto& cuts : splits) {
        std::vector<int> got(kPoints, -1);
        for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
          assign_points(c.pts.data(), c.cents.data(), dims, k, got.data(), cuts[s], cuts[s + 1]);
        }
        EXPECT_EQ(got, want) << "K=" << k << " dims=" << dims << " cuts " << cuts.size();
      }
    }
  }
}

TEST(KmeansFastPath, CentroidsBeyondThePackedBufferMatchTheOracle) {
  // 13 x 40 = 520 doubles do not fit the lane-interleaved copy.
  const std::size_t k = 13, dims = 40;
  ASSERT_GT(k * dims, kPackedCentroidDoubles);
  const KmeansCase c(301, dims, k, 77);
  std::vector<int> want(c.n, -1), got(c.n, -1);
  oracle::kmeans_assign(c.pts.data(), c.cents.data(), dims, k, want.data(), 0, c.n);
  assign_points(c.pts.data(), c.cents.data(), dims, k, got.data(), 0, 150);
  assign_points(c.pts.data(), c.cents.data(), dims, k, got.data(), 150, c.n);
  EXPECT_EQ(got, want);
}

TEST(KmeansFastPath, FullRunMatchesSerialOracleAtEveryK) {
  for (const std::size_t k : {1, 3, 8, 13}) {
    KmeansConfig cfg;
    cfg.points = 1999;
    cfg.clusters = k;
    cfg.dims = 5;
    cfg.iterations = 5;
    Kmeans wl(cfg);
    greengpu::RunOptions options;
    options.pool_workers = 3;
    const auto r = greengpu::run_experiment(wl, greengpu::Policy::green_gpu(), options);
    EXPECT_TRUE(r.verified) << "K=" << k;
    const std::vector<double> want = oracle::kmeans_run(wl.points(), cfg.dims, k, cfg.iterations);
    EXPECT_TRUE(same_bits(wl.centroids(), want)) << "K=" << k;
  }
}

TEST(BfsFixedPoint, FlatGraphMatchesPerNodeVectorConstruction) {
  std::vector<BfsConfig> configs(1);  // the default
  for (const std::size_t nodes : {1, 2, 3, 100}) {
    for (const std::size_t degree : {1, 2, 8}) {
      BfsConfig cfg;
      cfg.nodes = nodes;
      cfg.avg_degree = degree;
      cfg.seed = 5 + nodes + degree;
      configs.push_back(cfg);
    }
  }
  for (const BfsConfig& cfg : configs) {
    const BfsGraph got = build_bfs_graph(cfg);
    const BfsGraph want = oracle::bfs_graph(cfg);
    EXPECT_EQ(got.row_offsets, want.row_offsets) << cfg.nodes << " x " << cfg.avg_degree;
    EXPECT_EQ(got.in_neighbors, want.in_neighbors) << cfg.nodes << " x " << cfg.avg_degree;
  }
}

/// A full best-performance run of `wl` on a 2-worker pool, hardened or not.
greengpu::ExperimentResult run_bfs(Bfs& wl, const greengpu::RunOptions& base = {},
                                   bool hardened = false) {
  greengpu::RunOptions options = base;
  options.pool_workers = 2;
  greengpu::GreenGpuParams params;
  params.hardened = hardened;
  return greengpu::run_experiment(wl, greengpu::Policy::best_performance(params), options);
}

TEST(BfsFixedPoint, StoppingAtTheFixedPointGivesTheEveryRoundDistances) {
  const BfsConfig cfg;
  Bfs wl(cfg);
  ASSERT_TRUE(run_bfs(wl).verified);
  EXPECT_EQ(wl.rounds_relaxed(), 7u);  // rounds 1-6 lower a distance, round 7 none
  const BfsGraph g = oracle::bfs_graph(cfg);
  const std::vector<int> want = oracle::bfs_distances(g, cfg.iterations);
  EXPECT_EQ(wl.distances(), want);
  EXPECT_EQ(oracle::bfs_distances(g, 6), want);
  EXPECT_NE(oracle::bfs_distances(g, 5), want);
  common::JobPool pool(1);
  const Reference ref = wl.reference(pool);
  EXPECT_TRUE(std::equal(ref.begin(), ref.end(), want.begin(), want.end()));
}

TEST(BfsFixedPoint, ChainLongerThanTheRoundsRelaxesEveryRound) {
  // avg_degree 1 draws no extra edge: the chain 0 -> 1 -> ... -> 199, whose
  // distances grow by one node per round and never settle within 96 rounds.
  BfsConfig cfg;
  cfg.nodes = 200;
  cfg.avg_degree = 1;
  Bfs wl(cfg);
  ASSERT_TRUE(run_bfs(wl).verified);
  EXPECT_EQ(wl.rounds_relaxed(), cfg.iterations);
  const std::vector<int> want = oracle::bfs_distances(oracle::bfs_graph(cfg), cfg.iterations);
  EXPECT_EQ(wl.distances(), want);
  EXPECT_EQ(wl.distances()[96], 96);
  EXPECT_EQ(wl.distances()[97], std::numeric_limits<int>::max() / 2);
}

TEST(BfsFixedPoint, ALostRoundIsNeverTakenForTheFixedPoint) {
  // The launches of the first two rounds are lost (their merges still run),
  // so each merge sees an output buffer no round wrote, equal to its input.
  // Only a relaxed round may be compared: the run must go on to the
  // every-round distances.
  const BfsConfig cfg;
  Bfs wl(cfg);
  sim::Platform platform;
  cudalite::Runtime rt(platform, 2);
  wl.setup(rt);
  std::vector<cudalite::Stream> streams{rt.create_stream()};
  for (std::size_t iter = 0; iter < wl.iterations(); ++iter) {
    if (iter >= 2) {
      std::size_t pending = 2;
      wl.run_iteration(rt, streams, iter, {0.0, 1.0}, [&](std::size_t) { --pending; });
      rt.wait_until([&] { return pending == 0; });
    }
    wl.finish_iteration(rt, iter);
  }
  wl.teardown(rt);
  EXPECT_EQ(wl.rounds_relaxed(), 7u);
  EXPECT_EQ(wl.distances(), oracle::bfs_distances(oracle::bfs_graph(cfg), cfg.iterations));
  common::JobPool pool(1);
  EXPECT_TRUE(wl.verify(pool));
}

TEST(BfsFixedPoint, LaunchFaultsKeepTheEveryRoundDistances) {
  const BfsConfig cfg;
  const std::vector<int> want = oracle::bfs_distances(oracle::bfs_graph(cfg), cfg.iterations);
  // Hardened: rejected launches are retried, rerouted to the CPU or forced
  // inline, before and after the fixed point.
  for (const std::uint64_t seed : {1, 2, 3}) {
    greengpu::RunOptions options;
    options.faults.seed = seed;
    options.faults.launch_fail_rate = 0.4;
    Bfs wl(cfg);
    const auto r = run_bfs(wl, options, true);
    EXPECT_GT(r.fault_event_count, 0u) << "seed " << seed;
    EXPECT_TRUE(r.verified) << "seed " << seed;
    EXPECT_EQ(wl.distances(), want) << "seed " << seed;
    EXPECT_EQ(wl.rounds_relaxed(), 7u) << "seed " << seed;
  }
  // Un-hardened: the first rejected launch aborts the run; a run whose
  // launches all land relaxes like a fault-free one.
  std::size_t aborted = 0, completed = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    greengpu::RunOptions options;
    options.faults.seed = seed;
    options.faults.launch_fail_rate = 0.01;
    Bfs wl(cfg);
    try {
      const auto r = run_bfs(wl, options, false);
      ++completed;
      EXPECT_TRUE(r.verified) << "seed " << seed;
      EXPECT_EQ(wl.distances(), want) << "seed " << seed;
    } catch (const greengpu::ExperimentAborted&) {
      ++aborted;
    }
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(completed, 0u);
}

/// Start indices that stress the Gray-code step: the origin, odd values,
/// every 2^k - 1 carry boundary (and 2^k), and the wrap of the low kBits.
std::vector<std::uint64_t> sobol_starts() {
  std::vector<std::uint64_t> starts = {0, 1, 3, 5, 17, 12345, 999999, 0x5555555555555ULL};
  for (int k = 1; k <= 63; ++k) {
    starts.push_back((1ULL << k) - 1);
    starts.push_back(1ULL << k);
  }
  constexpr std::uint64_t kWrap = 1ULL << Sobol::kBits;
  for (const std::uint64_t near : {kWrap - 5, kWrap - 2, kWrap + 3, 2 * kWrap - 4}) {
    starts.push_back(near);
  }
  starts.push_back(std::numeric_limits<std::uint64_t>::max() - 6);
  return starts;
}

TEST(SobolFastPath, SampleMatchesNaturalOrderOracleBitForBit) {
  const Sobol fast(Sobol::kMaxDimensions);
  const oracle::NaturalOrderSobol slow(Sobol::kMaxDimensions);
  for (std::size_t dim = 0; dim < Sobol::kMaxDimensions; ++dim) {
    for (const std::uint64_t start : sobol_starts()) {
      for (std::uint64_t i = start; i != start + 40; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fast.sample(i, dim)),
                  std::bit_cast<std::uint64_t>(slow.sample(i, dim)))
            << "dim " << dim << " index " << i;
      }
    }
  }
}

TEST(SobolFastPath, FillMatchesNaturalOrderOracleBitForBit) {
  const Sobol fast(Sobol::kMaxDimensions);
  const oracle::NaturalOrderSobol slow(Sobol::kMaxDimensions);
  constexpr std::size_t kCount = 300;
  std::vector<double> out(kCount);
  for (std::size_t dim = 0; dim < Sobol::kMaxDimensions; ++dim) {
    for (const std::uint64_t start : sobol_starts()) {
      fast.fill(start, kCount, dim, out.data());
      for (std::size_t k = 0; k < kCount; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[k]),
                  std::bit_cast<std::uint64_t>(slow.sample(start + k, dim)))
            << "dim " << dim << " start " << start << " k " << k;
      }
    }
  }
}

TEST(SobolFastPath, FillBoundsAndEmptyRange) {
  const Sobol s(4);
  double sentinel = -1.0;
  s.fill(5, 0, 3, &sentinel);
  EXPECT_EQ(sentinel, -1.0);
  EXPECT_THROW(s.fill(5, 1, 4, &sentinel), std::out_of_range);
  s.fill(5, 1, 3, &sentinel);
  EXPECT_EQ(sentinel, s.sample(5, 3));
}

}  // namespace
}  // namespace gg::workloads
