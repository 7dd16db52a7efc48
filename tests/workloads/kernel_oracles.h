// Test-only oracles for the nbody and QG fast paths and for the kmeans
// reference, plus the Sobol helpers only tests use.
//
// The kernel oracles are the straight-line formulas the fast paths replaced:
// the one-body-at-a-time nbody loop and the natural-order Sobol bit loop over
// freshly built direction integers.  The fast paths must match them bit for
// bit (fast_kernels_test.cpp).  The kmeans oracle is the serial loop its
// `verify()` ran before it took the run's pool: every iteration over every
// point on one thread, in point order (verify_reference_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/workloads/nbody.h"
#include "src/workloads/sobol.h"

namespace gg::workloads::oracle {

/// One timestep of bodies [begin, end), one body at a time.
inline void nbody_step(const NbodyStep& s, std::size_t begin, std::size_t end) {
  constexpr double kSoftening2 = 1e-3;
  for (std::size_t i = begin; i < end; ++i) {
    double ax = 0.0, ay = 0.0, az = 0.0;
    const double xi = s.pos_in[3 * i], yi = s.pos_in[3 * i + 1], zi = s.pos_in[3 * i + 2];
    for (std::size_t j = 0; j < s.bodies; ++j) {
      const double dx = s.pos_in[3 * j] - xi;
      const double dy = s.pos_in[3 * j + 1] - yi;
      const double dz = s.pos_in[3 * j + 2] - zi;
      const double r2 = dx * dx + dy * dy + dz * dz + kSoftening2;
      const double inv_r3 = s.mass[j] / (r2 * std::sqrt(r2));
      ax += dx * inv_r3;
      ay += dy * inv_r3;
      az += dz * inv_r3;
    }
    s.vel_out[3 * i] = s.vel_in[3 * i] + ax * s.dt;
    s.vel_out[3 * i + 1] = s.vel_in[3 * i + 1] + ay * s.dt;
    s.vel_out[3 * i + 2] = s.vel_in[3 * i + 2] + az * s.dt;
    s.pos_out[3 * i] = xi + s.vel_out[3 * i] * s.dt;
    s.pos_out[3 * i + 1] = yi + s.vel_out[3 * i + 1] * s.dt;
    s.pos_out[3 * i + 2] = zi + s.vel_out[3 * i + 2] * s.dt;
  }
}

/// The kmeans reference as one serial loop: `iterations` passes, each
/// assigning every point to its nearest centroid (lowest index on ties) and
/// then recomputing every non-empty cluster's mean in point order, starting
/// from the first `k` points.  `points` is N x `dims` row-major.
inline std::vector<double> kmeans_run(const std::vector<double>& points, std::size_t dims,
                                      std::size_t k, std::size_t iterations) {
  const std::size_t n = points.size() / dims;
  std::vector<double> centroids(points.begin(),
                                points.begin() + static_cast<std::ptrdiff_t>(k * dims));
  std::vector<std::size_t> assignments(n, 0);
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        double d2 = 0.0;
        for (std::size_t d = 0; d < dims; ++d) {
          const double diff = points[i * dims + d] - centroids[c * dims + d];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      assignments[i] = best_c;
    }
    std::vector<double> sums(k * dims, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = assignments[i];
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c * dims + d] += points[i * dims + d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // an empty cluster keeps its centroid
      for (std::size_t d = 0; d < dims; ++d) {
        centroids[c * dims + d] = sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
  }
  return centroids;
}

/// Sobol points in natural order: XOR the direction integer of every set bit
/// of the index (Joe-Kuo new-joe-kuo-6 parameters, as in sobol.cpp).
class NaturalOrderSobol {
 public:
  static constexpr int kBits = Sobol::kBits;

  explicit NaturalOrderSobol(std::size_t dimensions) : v_(dimensions) {
    struct Params {
      int s;
      std::uint32_t a;
      std::uint32_t m[8];
    };
    constexpr Params kParams[] = {
        {1, 0, {1}},          {2, 1, {1, 3}},       {3, 1, {1, 3, 1}},
        {3, 2, {1, 1, 1}},    {4, 1, {1, 1, 3, 3}}, {4, 4, {1, 3, 5, 13}},
        {5, 2, {1, 1, 5, 5, 17}},
    };
    v_[0].resize(kBits);
    for (int bit = 0; bit < kBits; ++bit) v_[0][bit] = 1ULL << (kBits - 1 - bit);
    for (std::size_t d = 1; d < dimensions; ++d) {
      const Params& p = kParams[d - 1];
      auto& v = v_[d];
      v.resize(kBits);
      for (int i = 0; i < p.s; ++i) v[i] = static_cast<std::uint64_t>(p.m[i]) << (kBits - 1 - i);
      for (int i = p.s; i < kBits; ++i) {
        std::uint64_t value = v[i - p.s] ^ (v[i - p.s] >> p.s);
        for (int k = 1; k < p.s; ++k) {
          if ((p.a >> (p.s - 1 - k)) & 1u) value ^= v[i - k];
        }
        v[i] = value;
      }
    }
  }

  [[nodiscard]] double sample(std::uint64_t index, std::size_t dim) const {
    std::uint64_t bits = index;
    std::uint64_t x = 0;
    const auto& v = v_[dim];
    for (int bit = 0; bits != 0 && bit < kBits; ++bit, bits >>= 1) {
      if (bits & 1ULL) x ^= v[bit];
    }
    return static_cast<double>(x) * std::ldexp(1.0, -kBits);
  }

 private:
  std::vector<std::vector<std::uint64_t>> v_;
};

}  // namespace gg::workloads::oracle

namespace gg::workloads {

/// Van der Corput radical inverse in base 2 of `index` (dimension 0 of the
/// Sobol sequence), by bit reversal.
inline double radical_inverse(std::uint64_t index) {
  std::uint64_t v = index;
  v = ((v >> 1) & 0x5555555555555555ULL) | ((v & 0x5555555555555555ULL) << 1);
  v = ((v >> 2) & 0x3333333333333333ULL) | ((v & 0x3333333333333333ULL) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((v & 0x0F0F0F0F0F0F0F0FULL) << 4);
  v = ((v >> 8) & 0x00FF00FF00FF00FFULL) | ((v & 0x00FF00FF00FF00FFULL) << 8);
  v = ((v >> 16) & 0x0000FFFF0000FFFFULL) | ((v & 0x0000FFFF0000FFFFULL) << 16);
  v = (v >> 32) | (v << 32);
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

/// All coordinates of point `index`.
inline std::vector<double> sobol_point(const Sobol& sobol, std::uint64_t index) {
  std::vector<double> out(sobol.dimensions());
  for (std::size_t d = 0; d < out.size(); ++d) out[d] = sobol.sample(index, d);
  return out;
}

/// Star discrepancy proxy: the maximum deviation of the empirical CDF from
/// uniform over `n` points of dimension `dim`, on 64 axis-aligned anchors.
/// Low-discrepancy sequences beat pseudorandom ones by a wide margin here.
inline double uniformity_deviation(const Sobol& sobol, std::size_t dim, std::uint64_t n) {
  constexpr int kAnchors = 64;
  double worst = 0.0;
  for (int a = 1; a <= kAnchors; ++a) {
    const double threshold = static_cast<double>(a) / kAnchors;
    std::uint64_t below = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (sobol.sample(i, dim) < threshold) ++below;
    }
    const double empirical = static_cast<double>(below) / static_cast<double>(n);
    worst = std::max(worst, std::fabs(empirical - threshold));
  }
  return worst;
}

}  // namespace gg::workloads
