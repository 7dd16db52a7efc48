// The nbody and QG fast paths equal the straight-line formulas bit for bit:
// `advance_bodies` (two bodies per SSE2 instruction plus a scalar tail)
// against the one-body loop, and `Sobol::sample`/`Sobol::fill` (Gray-code
// prefix XORs) against the natural-order bit loop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
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
