#include "src/workloads/nbody.h"

#include <cmath>
#include <utility>

#include "src/common/rng.h"

namespace gg::workloads {

namespace {
constexpr double kSoftening2 = 1e-3;  // softened gravity, avoids singularities
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
  const std::size_t n = config_.bodies;
  for (std::size_t i = begin; i < end; ++i) {
    double ax = 0.0, ay = 0.0, az = 0.0;
    const double xi = pos_in_[3 * i], yi = pos_in_[3 * i + 1], zi = pos_in_[3 * i + 2];
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pos_in_[3 * j] - xi;
      const double dy = pos_in_[3 * j + 1] - yi;
      const double dz = pos_in_[3 * j + 2] - zi;
      const double r2 = dx * dx + dy * dy + dz * dz + kSoftening2;
      const double inv_r3 = mass_[j] / (r2 * std::sqrt(r2));
      ax += dx * inv_r3;
      ay += dy * inv_r3;
      az += dz * inv_r3;
    }
    const double dt = config_.dt;
    vel_out_[3 * i] = vel_in_[3 * i] + ax * dt;
    vel_out_[3 * i + 1] = vel_in_[3 * i + 1] + ay * dt;
    vel_out_[3 * i + 2] = vel_in_[3 * i + 2] + az * dt;
    pos_out_[3 * i] = xi + vel_out_[3 * i] * dt;
    pos_out_[3 * i + 1] = yi + vel_out_[3 * i + 1] * dt;
    pos_out_[3 * i + 2] = zi + vel_out_[3 * i + 2] * dt;
  }
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

bool Nbody::verify() const {
  if (!ran_) return false;
  // Serial reference: identical operation order per body, so results match
  // to a tight tolerance.
  const std::size_t n = config_.bodies;
  std::vector<double> pi = initial_pos_, po = initial_pos_;
  std::vector<double> vi = initial_vel_, vo = initial_vel_;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double ax = 0.0, ay = 0.0, az = 0.0;
      const double xi = pi[3 * i], yi = pi[3 * i + 1], zi = pi[3 * i + 2];
      for (std::size_t j = 0; j < n; ++j) {
        const double dx = pi[3 * j] - xi;
        const double dy = pi[3 * j + 1] - yi;
        const double dz = pi[3 * j + 2] - zi;
        const double r2 = dx * dx + dy * dy + dz * dz + kSoftening2;
        const double inv_r3 = mass_[j] / (r2 * std::sqrt(r2));
        ax += dx * inv_r3;
        ay += dy * inv_r3;
        az += dz * inv_r3;
      }
      const double dt = config_.dt;
      vo[3 * i] = vi[3 * i] + ax * dt;
      vo[3 * i + 1] = vi[3 * i + 1] + ay * dt;
      vo[3 * i + 2] = vi[3 * i + 2] + az * dt;
      po[3 * i] = xi + vo[3 * i] * dt;
      po[3 * i + 1] = yi + vo[3 * i + 1] * dt;
      po[3 * i + 2] = zi + vo[3 * i + 2] * dt;
    }
    std::swap(pi, po);
    std::swap(vi, vo);
  }
  if (result_pos_.size() != pi.size()) return false;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    if (std::fabs(result_pos_[i] - pi[i]) > 1e-9) return false;
  }
  return true;
}

}  // namespace gg::workloads
