#include "src/workloads/nbody.h"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/annotations.h"
#include "src/common/rng.h"

namespace gg::workloads {

namespace {
constexpr double kSoftening2 = 1e-3;  // softened gravity, avoids singularities

/// Body i's acceleration: the scalar kernel every SIMD lane reproduces.
inline void accelerate(const NbodyStep& s, std::size_t i, double (&a)[3]) {
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
  a[0] = ax;
  a[1] = ay;
  a[2] = az;
}

inline void integrate(const NbodyStep& s, std::size_t i, const double (&a)[3]) {
  for (std::size_t d = 0; d < 3; ++d) {
    s.vel_out[3 * i + d] = s.vel_in[3 * i + d] + a[d] * s.dt;
    s.pos_out[3 * i + d] = s.pos_in[3 * i + d] + s.vel_out[3 * i + d] * s.dt;
  }
}
}  // namespace

GG_HOT void advance_bodies(const NbodyStep& step, std::size_t begin, std::size_t end) {
  std::size_t i = begin;
#if defined(__SSE2__)
  // Bodies i (low lane) and i + 1 (high lane).  Packed sub/mul/add/sqrt/div
  // are the scalar IEEE operations lane by lane, issued in accelerate()'s
  // order, so each lane's bits equal the scalar kernel's.
  const __m128d soft = _mm_set1_pd(kSoftening2);
  for (; i + 1 < end; i += 2) {
    const double* p = step.pos_in + 3 * i;
    const __m128d xi = _mm_set_pd(p[3], p[0]);
    const __m128d yi = _mm_set_pd(p[4], p[1]);
    const __m128d zi = _mm_set_pd(p[5], p[2]);
    __m128d ax = _mm_setzero_pd(), ay = _mm_setzero_pd(), az = _mm_setzero_pd();
    for (std::size_t j = 0; j < step.bodies; ++j) {
      const double* q = step.pos_in + 3 * j;
      const __m128d dx = _mm_sub_pd(_mm_set1_pd(q[0]), xi);
      const __m128d dy = _mm_sub_pd(_mm_set1_pd(q[1]), yi);
      const __m128d dz = _mm_sub_pd(_mm_set1_pd(q[2]), zi);
      const __m128d r2 = _mm_add_pd(
          _mm_add_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)), _mm_mul_pd(dz, dz)),
          soft);
      const __m128d inv_r3 =
          _mm_div_pd(_mm_set1_pd(step.mass[j]), _mm_mul_pd(r2, _mm_sqrt_pd(r2)));
      ax = _mm_add_pd(ax, _mm_mul_pd(dx, inv_r3));
      ay = _mm_add_pd(ay, _mm_mul_pd(dy, inv_r3));
      az = _mm_add_pd(az, _mm_mul_pd(dz, inv_r3));
    }
    double lo[3], hi[3];
    _mm_storel_pd(&lo[0], ax);
    _mm_storeh_pd(&hi[0], ax);
    _mm_storel_pd(&lo[1], ay);
    _mm_storeh_pd(&hi[1], ay);
    _mm_storel_pd(&lo[2], az);
    _mm_storeh_pd(&hi[2], az);
    integrate(step, i, lo);
    integrate(step, i + 1, hi);
  }
#endif
  // Odd tail under SSE2; every body elsewhere.
  for (; i < end; ++i) {
    double a[3];
    accelerate(step, i, a);
    integrate(step, i, a);
  }
}

Nbody::Nbody(NbodyConfig config) : config_(config) {}

void Nbody::build_inputs() {
  if (!mass_.empty()) return;
  Rng rng(config_.seed);
  const std::size_t n = config_.bodies;
  initial_pos_.resize(3 * n);
  initial_vel_.resize(3 * n);
  mass_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      initial_pos_[3 * i + d] = rng.uniform(-1.0, 1.0);
      initial_vel_[3 * i + d] = rng.uniform(-0.1, 0.1);
    }
    mass_[i] = rng.uniform(0.5, 1.5);
  }
}

IntensityProfile Nbody::profile(std::size_t /*iter*/) const { return config_.profile; }

void Nbody::setup(cudalite::Runtime& rt) {
  const std::size_t n = 3 * config_.bodies;
  if (rt.compute_enabled()) {
    build_inputs();
    pos_in_ = initial_pos_;
    vel_in_ = initial_vel_;
    pos_out_ = pos_in_;
    vel_out_ = vel_in_;
  }
  dev_pos_ = rt.alloc<double>(n);
  rt.memcpy_h2d(dev_pos_, pos_in_.data(), n);
  ran_ = false;
}

void Nbody::step_range(std::size_t begin, std::size_t end) {
  advance_bodies({pos_in_.data(), vel_in_.data(), mass_.data(), pos_out_.data(),
                  vel_out_.data(), config_.bodies, config_.dt},
                 begin, end);
}

void Nbody::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_range(begin, end);
}

void Nbody::cpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_range(begin, end);
}

void Nbody::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  std::swap(pos_in_, pos_out_);
  std::swap(vel_in_, vel_out_);
}

void Nbody::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_pos_, pos_in_.data(), 3 * config_.bodies);
  rt.memcpy_d2h(result_pos_, dev_pos_);
  rt.free(dev_pos_);
  ran_ = rt.compute_enabled();
}

Reference Nbody::reference(common::JobPool& pool) const {
  if (mass_.empty()) return {};
  // Every iteration recomputed from the initial state by the same per-body
  // kernel over [0, N), in fixed blocks of kVerifyBlock bodies on the pool
  // (split-invariant, so the bits do not depend on the blocks).
  const std::size_t n = config_.bodies;
  const std::size_t blocks = (n + kVerifyBlock - 1) / kVerifyBlock;
  std::vector<double> pi = initial_pos_, po = initial_pos_;
  std::vector<double> vi = initial_vel_, vo = initial_vel_;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    const NbodyStep step{pi.data(), vi.data(), mass_.data(), po.data(),
                         vo.data(), n,         config_.dt};
    pool.run(blocks, [&step, n](std::size_t b) {
      advance_bodies(step, b * kVerifyBlock, std::min(n, (b + 1) * kVerifyBlock));
    });
    std::swap(pi, po);
    std::swap(vi, vo);
  }
  return pi;
}

}  // namespace gg::workloads
