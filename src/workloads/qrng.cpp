#include "src/workloads/qrng.h"

#include <cmath>

namespace gg::workloads {

namespace {
/// Heavy-phase transform: an inverse-CND-like map (Moro's rational
/// approximation shape; exact constants are irrelevant to the reproduction,
/// determinism is what matters).
inline double moro(double u) {
  const double x = u - 0.5;
  const double r = x * x;
  return x * (2.50662823884 + r * (-18.61500062529 + r * 41.39119773534)) /
         (1.0 + r * (-8.47351093090 + r * 23.08336743743));
}
}  // namespace

Qrng::Qrng(QrngConfig config) : config_(config) {}

IntensityProfile Qrng::profile(std::size_t iter) const {
  const std::size_t phase = (iter / config_.phase_length) % 2;
  return phase == 0 ? config_.heavy_profile : config_.light_profile;
}

void Qrng::setup(cudalite::Runtime& rt) {
  if (rt.compute_enabled()) values_.assign(config_.points, 0.0);
  sums_.clear();
  dev_values_ = rt.alloc<double>(config_.points);
  ran_ = false;
}

void Qrng::gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  // Iteration `iter` emits points [iter*N, (iter+1)*N) of Sobol dimension
  // iter mod kDimensions (the SDK generator fills one dimension per pass);
  // heavy-phase iterations transform them in place, light ones emit them.
  const std::uint64_t base = static_cast<std::uint64_t>(iter) * config_.points +
                             config_.seed;
  const std::size_t dim = iter % kDimensions;
  sobol_.fill(base + begin + 1, end - begin, dim, values_.data() + begin);
  if ((iter / config_.phase_length) % 2 == 0) {
    for (std::size_t i = begin; i < end; ++i) values_[i] = moro(values_[i]);
  }
}

void Qrng::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);
}

void Qrng::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  if (!rt.compute_enabled()) return;
  double s = 0.0;
  for (const double v : values_) s += v;
  sums_.push_back(s);
}

void Qrng::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_values_, values_.data(), config_.points);
  std::vector<double> back;
  rt.memcpy_d2h(back, dev_values_);
  rt.free(dev_values_);
  ran_ = !back.empty();
}

bool Qrng::verify(common::JobPool& /*pool*/) const {
  if (!ran_ || sums_.size() != config_.iterations) return false;
  // Recompute every iteration's points and reduction serially.
  std::vector<double> u(config_.points);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    const std::uint64_t base = static_cast<std::uint64_t>(it) * config_.points +
                               config_.seed;
    sobol_.fill(base + 1, config_.points, it % kDimensions, u.data());
    const bool heavy = (it / config_.phase_length) % 2 == 0;
    double s = 0.0;
    for (const double v : u) s += heavy ? moro(v) : v;
    if (std::fabs(s - sums_[it]) > 1e-9 * (1.0 + std::fabs(s))) return false;
  }
  return true;
}

}  // namespace gg::workloads
