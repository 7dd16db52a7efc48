#include "src/workloads/lud.h"

#include <cmath>
#include <stdexcept>

#include "src/common/rng.h"

namespace gg::workloads {

Lud::Lud(LudConfig config) : config_(config) {
  if (config_.dim < 2) throw std::invalid_argument("Lud: dim must be >= 2");
}

IntensityProfile Lud::profile(std::size_t /*iter*/) const { return config_.profile; }

std::vector<double> Lud::make_matrix(std::size_t iter) const {
  Rng rng(config_.seed + iter * 0x9E3779B9ULL);
  const std::size_t n = config_.dim;
  std::vector<double> a(n * n);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  // Diagonal dominance keeps pivot-free Doolittle elimination stable.
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += static_cast<double>(n);
  return a;
}

void Lud::setup(cudalite::Runtime& rt) {
  dev_matrix_ = rt.alloc<double>(config_.dim * config_.dim);
  // Sized here, not by the compute chunks, so the teardown writeback has a
  // source even when no iteration ran.
  if (rt.compute_enabled()) lu_.assign(config_.dim * config_.dim, 0.0);
  original_.clear();
  ran_ = false;
}

void Lud::gpu_chunk(std::size_t /*begin*/, std::size_t /*end*/, std::size_t iter) {
  // One launch factors the whole matrix (sequential pivot steps).
  original_ = make_matrix(iter);
  lu_ = original_;
  const std::size_t n = config_.dim;
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = lu_[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_[i * n + k] / pivot;
      lu_[i * n + k] = factor;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_[i * n + j] -= factor * lu_[k * n + j];
      }
    }
  }
}

void Lud::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);
}

void Lud::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_matrix_, lu_.data(), config_.dim * config_.dim);
  std::vector<double> back;
  rt.memcpy_d2h(back, dev_matrix_);
  rt.free(dev_matrix_);
  ran_ = !back.empty();
}

bool Lud::verify(common::JobPool& /*pool*/) const {
  if (!ran_ || lu_.empty() || original_.empty()) return false;
  // Check L * U == A for the last factored matrix.
  const std::size_t n = config_.dim;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      const std::size_t kmax = std::min(i, j);
      for (std::size_t k = 0; k <= kmax; ++k) {
        const double l = (k == i) ? 1.0 : lu_[i * n + k];
        const double u = lu_[k * n + j];
        sum += l * u;
      }
      if (std::fabs(sum - original_[i * n + j]) > 1e-8 * static_cast<double>(n)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace gg::workloads
