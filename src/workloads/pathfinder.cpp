#include "src/workloads/pathfinder.h"

#include <algorithm>
#include <utility>

#include "src/common/rng.h"

namespace gg::workloads {

Pathfinder::Pathfinder(PathfinderConfig config) : config_(config) {}

IntensityProfile Pathfinder::profile(std::size_t /*iter*/) const { return config_.profile; }

int Pathfinder::weight(std::size_t row, std::size_t col) const {
  // Stateless hash of (seed, row, col) -> weight in [0, 10).
  std::uint64_t s = config_.seed ^ (row * 0x9E3779B97F4A7C15ULL) ^
                    (col * 0xC2B2AE3D27D4EB4FULL);
  return static_cast<int>(splitmix64(s) % 10);
}

void Pathfinder::setup(cudalite::Runtime& rt) {
  const std::size_t c = config_.cols;
  if (rt.compute_enabled()) {
    cost_in_.resize(c);
    for (std::size_t j = 0; j < c; ++j) cost_in_[j] = weight(0, j);
    cost_out_.assign(c, 0);
  }
  dev_cost_ = rt.alloc<long long>(c);
  rt.memcpy_h2d(dev_cost_, cost_in_.data(), c);
  ran_ = false;
}

void Pathfinder::gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  const std::size_t c = config_.cols;
  const std::size_t row = iter + 1;  // row 0 seeded the costs
  for (std::size_t j = begin; j < end; ++j) {
    long long best = cost_in_[j];
    if (j > 0) best = std::min(best, cost_in_[j - 1]);
    if (j + 1 < c) best = std::min(best, cost_in_[j + 1]);
    cost_out_[j] = best + weight(row, j);
  }
}

void Pathfinder::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);
}

void Pathfinder::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  std::swap(cost_in_, cost_out_);
}

void Pathfinder::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_cost_, cost_in_.data(), config_.cols);
  rt.memcpy_d2h(result_, dev_cost_);
  rt.free(dev_cost_);
  ran_ = rt.compute_enabled();
}

Reference Pathfinder::reference(common::JobPool& /*pool*/) const {
  const std::size_t c = config_.cols;
  std::vector<long long> in(c), out(c);
  for (std::size_t j = 0; j < c; ++j) in[j] = weight(0, j);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    const std::size_t row = it + 1;
    for (std::size_t j = 0; j < c; ++j) {
      long long best = in[j];
      if (j > 0) best = std::min(best, in[j - 1]);
      if (j + 1 < c) best = std::min(best, in[j + 1]);
      out[j] = best + weight(row, j);
    }
    std::swap(in, out);
  }
  return {in.begin(), in.end()};
}

}  // namespace gg::workloads
