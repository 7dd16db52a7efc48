#include "src/workloads/srad.h"

#include <cmath>
#include <utility>

#include "src/common/rng.h"

namespace gg::workloads {

Srad::Srad(SradConfig config) : config_(config) {}

void Srad::build_inputs() {
  if (!initial_img_.empty()) return;
  Rng rng(config_.seed);
  initial_img_.resize(config_.rows * config_.cols);
  // Speckled image: positive intensities with multiplicative noise.
  for (auto& p : initial_img_) p = std::exp(rng.uniform(0.0, 2.0));
}

IntensityProfile Srad::profile(std::size_t /*iter*/) const { return config_.profile; }

void Srad::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.rows * config_.cols;
  if (rt.compute_enabled()) {
    build_inputs();
    img_in_ = initial_img_;
    img_out_.assign(n, 0.0);
  }
  dev_img_ = rt.alloc<double>(n);
  rt.memcpy_h2d(dev_img_, img_in_.data(), n);
  ran_ = false;
}

void Srad::step_rows(const std::vector<double>& in, std::vector<double>& out,
                     std::size_t begin, std::size_t end) const {
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  auto at = [cols, &in](std::size_t r, std::size_t c) { return in[r * cols + c]; };
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double j = at(r, c);
      const double jn = r > 0 ? at(r - 1, c) : j;
      const double js = r + 1 < rows ? at(r + 1, c) : j;
      const double jw = c > 0 ? at(r, c - 1) : j;
      const double je = c + 1 < cols ? at(r, c + 1) : j;
      // Instantaneous coefficient of variation (SRAD's q0 statistic shape).
      const double dn = jn - j, ds = js - j, dw = jw - j, de = je - j;
      const double g2 = (dn * dn + ds * ds + dw * dw + de * de) / (j * j);
      const double l = (dn + ds + dw + de) / j;
      const double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
      const double den = 1.0 + 0.25 * l;
      const double qsq = num / (den * den);
      // Diffusion coefficient, clamped to [0, 1].
      double cdiff = 1.0 / (1.0 + qsq);
      if (cdiff < 0.0) cdiff = 0.0;
      if (cdiff > 1.0) cdiff = 1.0;
      out[r * cols + c] = j + config_.lambda * cdiff * (dn + ds + dw + de);
    }
  }
}

void Srad::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_rows(img_in_, img_out_, begin, end);
}

void Srad::cpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  step_rows(img_in_, img_out_, begin, end);
}

void Srad::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  std::swap(img_in_, img_out_);
}

void Srad::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_img_, img_in_.data(), config_.rows * config_.cols);
  rt.memcpy_d2h(result_, dev_img_);
  rt.free(dev_img_);
  ran_ = rt.compute_enabled();
}

Reference Srad::reference(common::JobPool& /*pool*/) const {
  if (initial_img_.empty()) return {};
  std::vector<double> in = initial_img_;
  std::vector<double> out(in.size(), 0.0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    step_rows(in, out, 0, config_.rows);
    std::swap(in, out);
  }
  return in;
}

}  // namespace gg::workloads
