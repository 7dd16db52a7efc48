#include "src/workloads/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/rng.h"

namespace gg::workloads {

namespace {
/// Squared euclidean distance between a point and a centroid.
double dist2(const double* p, const double* c, std::size_t dims) {
  double s = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = p[d] - c[d];
    s += diff * diff;
  }
  return s;
}

/// One full kmeans pass (assignment + update) used by the reference.  Each
/// point's assignment depends on that point alone, so the pass runs on the
/// pool in fixed blocks; the update stays serial in point order, the
/// summation order the divided run uses.
void reference_step(common::JobPool& pool, const std::vector<double>& points,
                    std::vector<double>& centroids, std::vector<int>& assignments,
                    std::size_t n, std::size_t dims, std::size_t k) {
  constexpr std::size_t kBlock = Kmeans::kVerifyBlock;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  pool.run(blocks, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < end; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = dist2(&points[i * dims], &centroids[c * dims], dims);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      assignments[i] = best_c;
    }
  });
  std::vector<double> sums(k * dims, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(assignments[i]);
    ++counts[c];
    for (std::size_t d = 0; d < dims; ++d) sums[c * dims + d] += points[i * dims + d];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;  // keep the old centroid for empty clusters
    for (std::size_t d = 0; d < dims; ++d) {
      centroids[c * dims + d] = sums[c * dims + d] / static_cast<double>(counts[c]);
    }
  }
}
}  // namespace

Kmeans::Kmeans(KmeansConfig config) : config_(config) {}

void Kmeans::build_inputs() {
  if (!host_points_.empty()) return;
  Rng rng(config_.seed);
  const std::size_t n = config_.points;
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  host_points_.resize(n * dims);
  // Gaussian blobs around k well-separated anchors so clustering is
  // meaningful (and the verify comparison is numerically stable).
  std::vector<double> anchors(k * dims);
  for (auto& a : anchors) a = rng.uniform(-10.0, 10.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = rng.uniform_int(k);
    for (std::size_t d = 0; d < dims; ++d) {
      host_points_[i * dims + d] = anchors[blob * dims + d] + rng.normal(0.0, 1.0);
    }
  }
  // Initial centroids: the first k points (the Rodinia convention).
  initial_centroids_.assign(host_points_.begin(),
                            host_points_.begin() + static_cast<std::ptrdiff_t>(k * dims));
}

IntensityProfile Kmeans::profile(std::size_t /*iter*/) const { return config_.profile; }

void Kmeans::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.points * config_.dims;
  const std::size_t kd = config_.clusters * config_.dims;
  if (rt.compute_enabled()) {
    build_inputs();
    centroids_ = initial_centroids_;
    assignments_.assign(config_.points, 0);
  }
  dev_points_ = rt.alloc<double>(n);
  dev_centroids_ = rt.alloc<double>(kd);
  rt.memcpy_h2d(dev_points_, host_points_.data(), n);
  rt.memcpy_h2d(dev_centroids_, centroids_.data(), kd);
  ran_ = false;
}

void Kmeans::assign_range(const double* points, std::size_t begin, std::size_t end) {
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  for (std::size_t i = begin; i < end; ++i) {
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = dist2(&points[i * dims], &centroids_[c * dims], dims);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    assignments_[i] = best_c;
  }
}

void Kmeans::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  // GPU path reads the device-resident copies (as the CUDA kernel would).
  assign_range(dev_points_.data(), begin, end);
}

void Kmeans::cpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  assign_range(host_points_.data(), begin, end);
}

void Kmeans::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  // Reduction point: recompute centroids on the host from the merged
  // assignments, then refresh the device copy for the next iteration.
  if (rt.compute_enabled()) {
    const std::size_t n = config_.points;
    const std::size_t dims = config_.dims;
    const std::size_t k = config_.clusters;
    std::vector<double> sums(k * dims, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(assignments_[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c * dims + d] += host_points_[i * dims + d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c * dims + d] = sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
  }
  rt.memcpy_h2d(dev_centroids_, centroids_.data(), config_.clusters * config_.dims);
}

void Kmeans::teardown(cudalite::Runtime& rt) {
  rt.memcpy_d2h(result_centroids_, dev_centroids_);
  rt.free(dev_points_);
  rt.free(dev_centroids_);
  ran_ = rt.compute_enabled();
}

bool Kmeans::verify(common::JobPool& pool) const {
  if (!ran_) return false;
  // Reference: rerun the full algorithm from the stored initial state (the
  // assignment pass on the pool); the divided execution must match
  // bit-for-bit up to summation order (same order here), so compare with a
  // tight tolerance.
  std::vector<double> ref_centroids = initial_centroids_;
  std::vector<int> ref_assignments(config_.points, 0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    reference_step(pool, host_points_, ref_centroids, ref_assignments, config_.points,
                   config_.dims, config_.clusters);
  }
  if (result_centroids_.size() != ref_centroids.size()) return false;
  for (std::size_t i = 0; i < ref_centroids.size(); ++i) {
    if (std::fabs(result_centroids_[i] - ref_centroids[i]) > 1e-9) return false;
  }
  return true;
}

}  // namespace gg::workloads
