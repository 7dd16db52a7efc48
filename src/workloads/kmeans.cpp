#include "src/workloads/kmeans.h"

#include <algorithm>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/annotations.h"
#include "src/common/rng.h"

namespace gg::workloads {

namespace {
/// Squared euclidean distance between a point and a centroid: the scalar
/// kernel every SIMD lane reproduces.
inline double dist2(const double* p, const double* c, std::size_t dims) {
  double s = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = p[d] - c[d];
    s += diff * diff;
  }
  return s;
}
}  // namespace

GG_HOT void assign_points(const double* points, const double* centroids, std::size_t dims,
                          std::size_t k, int* out, std::size_t begin, std::size_t end) {
  std::size_t pairs = 0;  // centroid pairs in SIMD lanes; the rest run scalar
#if defined(__SSE2__)
  // Centroids 2j (low lane) and 2j + 1 (high lane) interleaved per d, so
  // each pair's coordinate d is one aligned load.
  alignas(16) double packed[kPackedCentroidDoubles];
  if (k * dims <= kPackedCentroidDoubles) {
    pairs = k / 2;
    for (std::size_t j = 0; j < pairs; ++j) {
      for (std::size_t d = 0; d < dims; ++d) {
        packed[2 * (j * dims + d)] = centroids[2 * j * dims + d];
        packed[2 * (j * dims + d) + 1] = centroids[(2 * j + 1) * dims + d];
      }
    }
  }
#endif
  for (std::size_t i = begin; i < end; ++i) {
    const double* p = points + i * dims;
    double best = std::numeric_limits<double>::max();
    std::size_t best_c = 0;
    const auto keep = [&](double dist, std::size_t c) {
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    };
    std::size_t j = 0;
#if defined(__SSE2__)
    // Packed sub/mul/add are the scalar IEEE operations lane by lane, issued
    // in dist2()'s order over d, so each lane's bits equal dist2()'s.  Four
    // pairs at a time keep four independent add chains in flight.
    alignas(16) double dist[8];
    for (; j + 4 <= pairs; j += 4) {
      const double* q = packed + 2 * j * dims;
      __m128d s0 = _mm_setzero_pd(), s1 = s0, s2 = s0, s3 = s0;
      for (std::size_t d = 0; d < dims; ++d) {
        const __m128d x = _mm_set1_pd(p[d]);
        const __m128d d0 = _mm_sub_pd(x, _mm_load_pd(q + 2 * d));
        const __m128d d1 = _mm_sub_pd(x, _mm_load_pd(q + 2 * (dims + d)));
        const __m128d d2 = _mm_sub_pd(x, _mm_load_pd(q + 2 * (2 * dims + d)));
        const __m128d d3 = _mm_sub_pd(x, _mm_load_pd(q + 2 * (3 * dims + d)));
        s0 = _mm_add_pd(s0, _mm_mul_pd(d0, d0));
        s1 = _mm_add_pd(s1, _mm_mul_pd(d1, d1));
        s2 = _mm_add_pd(s2, _mm_mul_pd(d2, d2));
        s3 = _mm_add_pd(s3, _mm_mul_pd(d3, d3));
      }
      _mm_store_pd(dist, s0);
      _mm_store_pd(dist + 2, s1);
      _mm_store_pd(dist + 4, s2);
      _mm_store_pd(dist + 6, s3);
      for (std::size_t c = 0; c < 8; ++c) keep(dist[c], 2 * j + c);
    }
    for (; j < pairs; ++j) {
      const double* q = packed + 2 * j * dims;
      __m128d s0 = _mm_setzero_pd();
      for (std::size_t d = 0; d < dims; ++d) {
        const __m128d d0 = _mm_sub_pd(_mm_set1_pd(p[d]), _mm_load_pd(q + 2 * d));
        s0 = _mm_add_pd(s0, _mm_mul_pd(d0, d0));
      }
      _mm_store_pd(dist, s0);
      keep(dist[0], 2 * j);
      keep(dist[1], 2 * j + 1);
    }
#endif
    // The odd centroid under SSE2; every centroid without SSE2 or when the
    // centroids do not fit `packed`.
    for (std::size_t c = 2 * j; c < k; ++c) keep(dist2(p, centroids + c * dims, dims), c);
    out[i] = static_cast<int>(best_c);
  }
}

std::vector<double> kmeans_points(std::size_t n, std::size_t dims, std::size_t k,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> points(n * dims);
  // Gaussian blobs around k well-separated anchors so clustering is
  // meaningful (and the verify comparison is numerically stable).
  std::vector<double> anchors(k * dims);
  for (auto& a : anchors) a = rng.uniform(-10.0, 10.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = rng.uniform_int(k);
    for (std::size_t d = 0; d < dims; ++d) {
      points[i * dims + d] = anchors[blob * dims + d] + rng.normal(0.0, 1.0);
    }
  }
  return points;
}

void accumulate_clusters(const double* points, const int* assignments, std::size_t dims,
                         std::size_t begin, std::size_t end, double* sums,
                         std::size_t* counts) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto c = static_cast<std::size_t>(assignments[i]);
    ++counts[c];
    double* sum = sums + c * dims;
    const double* p = points + i * dims;
    std::size_t d = 0;
#if defined(__SSE2__)
    // Two coordinates per packed add: each lane is its coordinate's scalar
    // add, still in point order.
    for (; d + 2 <= dims; d += 2) {
      _mm_storeu_pd(sum + d, _mm_add_pd(_mm_loadu_pd(sum + d), _mm_loadu_pd(p + d)));
    }
#endif
    for (; d < dims; ++d) sum[d] += p[d];
  }
}

void divide_clusters(const double* sums, const std::size_t* counts, std::size_t dims,
                     std::size_t k, double* centroids) {
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;  // keep the old centroid for empty clusters
    for (std::size_t d = 0; d < dims; ++d) {
      centroids[c * dims + d] = sums[c * dims + d] / static_cast<double>(counts[c]);
    }
  }
}

namespace {
/// One centroid update from the assignments of points [0, n): each
/// non-empty cluster's centroid becomes the mean of its points, summed in
/// point order; an empty cluster keeps its centroid.
void update_centroids(const double* points, const int* assignments, std::size_t n,
                      std::size_t dims, std::size_t k, std::vector<double>& centroids) {
  std::vector<double> sums(k * dims, 0.0);
  std::vector<std::size_t> counts(k, 0);
  accumulate_clusters(points, assignments, dims, 0, n, sums.data(), counts.data());
  divide_clusters(sums.data(), counts.data(), dims, k, centroids.data());
}
}  // namespace

Kmeans::Kmeans(KmeansConfig config) : config_(config) {}

void Kmeans::build_inputs() {
  if (!host_points_.empty()) return;
  host_points_ = kmeans_points(config_.points, config_.dims, config_.clusters, config_.seed);
  // Initial centroids: the first k points (the Rodinia convention).
  initial_centroids_.assign(
      host_points_.begin(),
      host_points_.begin() + static_cast<std::ptrdiff_t>(config_.clusters * config_.dims));
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

void Kmeans::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  // GPU path reads the device-resident copies (as the CUDA kernel would).
  assign_points(dev_points_.data(), centroids_.data(), config_.dims, config_.clusters,
                assignments_.data(), begin, end);
}

void Kmeans::cpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  assign_points(host_points_.data(), centroids_.data(), config_.dims, config_.clusters,
                assignments_.data(), begin, end);
}

void Kmeans::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  // Reduction point: recompute centroids on the host from the merged
  // assignments, then refresh the device copy for the next iteration.
  if (rt.compute_enabled()) {
    update_centroids(host_points_.data(), assignments_.data(), config_.points, config_.dims,
                     config_.clusters, centroids_);
  }
  rt.memcpy_h2d(dev_centroids_, centroids_.data(), config_.clusters * config_.dims);
}

void Kmeans::teardown(cudalite::Runtime& rt) {
  rt.memcpy_d2h(result_centroids_, dev_centroids_);
  rt.free(dev_points_);
  rt.free(dev_centroids_);
  ran_ = rt.compute_enabled();
}

Reference Kmeans::reference(common::JobPool& pool) const {
  if (host_points_.empty()) return {};
  // Rerun the full algorithm from the stored initial state.  Each point's
  // assignment depends on that point alone, so the assignment pass runs on
  // the pool in fixed blocks; the update stays serial in point order, the
  // summation order the divided run uses, so matches() uses a tight
  // tolerance.
  const std::size_t n = config_.points;
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  const std::size_t blocks = (n + kVerifyBlock - 1) / kVerifyBlock;
  std::vector<double> ref_centroids = initial_centroids_;
  std::vector<int> ref_assignments(n, 0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    pool.run(blocks, [&](std::size_t b) {
      assign_points(host_points_.data(), ref_centroids.data(), dims, k, ref_assignments.data(),
                    b * kVerifyBlock, std::min(n, (b + 1) * kVerifyBlock));
    });
    update_centroids(host_points_.data(), ref_assignments.data(), n, dims, k, ref_centroids);
  }
  return ref_centroids;
}

}  // namespace gg::workloads
