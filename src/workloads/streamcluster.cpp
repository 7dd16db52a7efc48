#include "src/workloads/streamcluster.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace gg::workloads {

Streamcluster::Streamcluster(StreamclusterConfig config) : config_(config) {}

void Streamcluster::build_inputs() {
  if (!coords_.empty()) return;
  Rng rng(config_.seed);
  coords_.resize(config_.points * config_.dims);
  for (auto& c : coords_) c = rng.uniform(0.0, 1.0);
}

IntensityProfile Streamcluster::profile(std::size_t iter) const {
  if (iter < config_.warmup_iterations) {
    IntensityProfile warm = config_.light_profile;
    warm.core_util *= 0.4;
    warm.mem_util *= 0.4;
    return warm;
  }
  const std::size_t phase =
      ((iter - config_.warmup_iterations) / config_.phase_length) % 2;
  return phase == 0 ? config_.heavy_profile : config_.light_profile;
}

std::size_t Streamcluster::candidate_for(std::size_t iter) const {
  return (iter * 131 + 7) % config_.points;
}

double Streamcluster::dist2(std::size_t a, std::size_t b) const {
  const double* pa = &coords_[a * config_.dims];
  const double* pb = &coords_[b * config_.dims];
  double s = 0.0;
  for (std::size_t d = 0; d < config_.dims; ++d) {
    const double diff = pa[d] - pb[d];
    s += diff * diff;
  }
  return s;
}

void Streamcluster::setup(cudalite::Runtime& rt) {
  if (rt.compute_enabled()) {
    build_inputs();
    // Initially every point is assigned to centre 0.
    assign_cost_.resize(config_.points);
    for (std::size_t i = 0; i < config_.points; ++i) assign_cost_[i] = dist2(i, 0);
    cand_cost_.assign(config_.points, 0.0);
  }
  const std::size_t n = config_.points * config_.dims;
  dev_coords_ = rt.alloc<double>(n);
  rt.memcpy_h2d(dev_coords_, coords_.data(), n);
  ran_ = false;
}

void Streamcluster::gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  const std::size_t cand = candidate_for(iter);
  for (std::size_t i = begin; i < end; ++i) cand_cost_[i] = dist2(i, cand);
}

void Streamcluster::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);
}

void Streamcluster::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  if (!rt.compute_enabled()) return;
  // Open the candidate centre if reassignments reduce total cost
  // (a facility cost of 1.0 models the opening penalty).
  constexpr double kFacilityCost = 1.0;
  double gain = -kFacilityCost;
  for (std::size_t i = 0; i < config_.points; ++i) {
    gain += std::max(0.0, assign_cost_[i] - cand_cost_[i]);
  }
  if (gain > 0.0) {
    for (std::size_t i = 0; i < config_.points; ++i) {
      assign_cost_[i] = std::min(assign_cost_[i], cand_cost_[i]);
    }
  }
}

void Streamcluster::teardown(cudalite::Runtime& rt) {
  rt.free(dev_coords_);
  ran_ = rt.compute_enabled();
  if (ran_) final_costs_ = assign_cost_;
}

double Streamcluster::total_cost() const {
  double s = 0.0;
  for (const double c : final_costs_) s += c;
  return s;
}

bool Streamcluster::verify(common::JobPool& /*pool*/) const {
  if (!ran_) return false;
  // Serial reference of the whole pgain sequence.
  std::vector<double> ref(config_.points);
  for (std::size_t i = 0; i < config_.points; ++i) ref[i] = dist2(i, 0);
  std::vector<double> cand(config_.points);
  constexpr double kFacilityCost = 1.0;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    const std::size_t c = candidate_for(it);
    double gain = -kFacilityCost;
    for (std::size_t i = 0; i < config_.points; ++i) {
      cand[i] = dist2(i, c);
      gain += std::max(0.0, ref[i] - cand[i]);
    }
    if (gain > 0.0) {
      for (std::size_t i = 0; i < config_.points; ++i) ref[i] = std::min(ref[i], cand[i]);
    }
  }
  if (final_costs_.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::fabs(final_costs_[i] - ref[i]) > 1e-12) return false;
  }
  return true;
}

}  // namespace gg::workloads
