#include "src/workloads/hotspot.h"

#include <cmath>
#include <utility>

#include "src/common/rng.h"

namespace gg::workloads {

namespace {
// Stencil coefficients (fixed constants in the Rodinia kernel's spirit).
constexpr double kRx = 0.1;       // lateral coupling
constexpr double kRy = 0.1;
constexpr double kRz = 0.05;      // coupling to ambient
constexpr double kAmbient = 80.0;
constexpr double kPowerScale = 0.5;
}  // namespace

Hotspot::Hotspot(HotspotConfig config) : config_(config) {}

void Hotspot::build_inputs() {
  if (!power_.empty()) return;
  Rng rng(config_.seed);
  const std::size_t n = config_.rows * config_.cols;
  initial_temp_.resize(n);
  power_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    initial_temp_[i] = rng.uniform(70.0, 90.0);
    power_[i] = rng.uniform(0.0, 1.0);
  }
}

IntensityProfile Hotspot::profile(std::size_t /*iter*/) const { return config_.profile; }

void Hotspot::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.rows * config_.cols;
  if (rt.compute_enabled()) {
    build_inputs();
    temp_in_ = initial_temp_;
    temp_out_.assign(n, 0.0);
  }
  dev_temp_a_ = rt.alloc<double>(n);
  dev_temp_b_ = rt.alloc<double>(n);
  dev_power_ = rt.alloc<double>(n);
  rt.memcpy_h2d(dev_temp_a_, temp_in_.data(), n);
  rt.memcpy_h2d(dev_power_, power_.data(), n);
  ran_ = false;
}

void Hotspot::reference_step(const std::vector<double>& in, std::vector<double>& out,
                             const std::vector<double>& power, std::size_t rows,
                             std::size_t cols) {
  auto at = [cols](const std::vector<double>& g, std::size_t r, std::size_t c) {
    return g[r * cols + c];
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double center = at(in, r, c);
      const double north = r > 0 ? at(in, r - 1, c) : center;
      const double south = r + 1 < rows ? at(in, r + 1, c) : center;
      const double west = c > 0 ? at(in, r, c - 1) : center;
      const double east = c + 1 < cols ? at(in, r, c + 1) : center;
      out[r * cols + c] = center + kRy * (north + south - 2.0 * center) +
                          kRx * (west + east - 2.0 * center) +
                          kRz * (kAmbient - center) +
                          kPowerScale * power[r * cols + c];
    }
  }
}

void Hotspot::step_rows(std::size_t begin, std::size_t end) {
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  auto at = [this, cols](std::size_t r, std::size_t c) { return temp_in_[r * cols + c]; };
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double center = at(r, c);
      const double north = r > 0 ? at(r - 1, c) : center;
      const double south = r + 1 < rows ? at(r + 1, c) : center;
      const double west = c > 0 ? at(r, c - 1) : center;
      const double east = c + 1 < cols ? at(r, c + 1) : center;
      temp_out_[r * cols + c] = center + kRy * (north + south - 2.0 * center) +
                                kRx * (west + east - 2.0 * center) +
                                kRz * (kAmbient - center) +
                                kPowerScale * power_[r * cols + c];
    }
  }
}

void Hotspot::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_rows(begin, end);
}

void Hotspot::cpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_rows(begin, end);
}

void Hotspot::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  // Barrier point: both halves have written temp_out_; swap buffers.
  std::swap(temp_in_, temp_out_);
}

void Hotspot::teardown(cudalite::Runtime& rt) {
  // Mirror the device-side round trip of the real application.
  rt.memcpy_h2d(dev_temp_b_, temp_in_.data(), config_.rows * config_.cols);
  rt.memcpy_d2h(result_, dev_temp_b_);
  rt.free(dev_temp_a_);
  rt.free(dev_temp_b_);
  rt.free(dev_power_);
  ran_ = rt.compute_enabled();
}

Reference Hotspot::reference(common::JobPool& /*pool*/) const {
  if (power_.empty()) return {};
  std::vector<double> in = initial_temp_;
  std::vector<double> out(in.size(), 0.0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    reference_step(in, out, power_, config_.rows, config_.cols);
    std::swap(in, out);
  }
  return in;
}

}  // namespace gg::workloads
