// kmeans (Rodinia): the paper's primary division workload.
//
// An iteration is one assignment pass over all points followed by the
// centroid-update reduction (the "reduction point" the paper cites as the
// natural iteration boundary).  The assignment pass is divisible: points
// [0, split) are assigned on the CPU path and [split, N) on the GPU path;
// `finish_iteration` recomputes centroids on the host and refreshes the
// device copy (a real H2D transfer, charged to the bus model).
//
// Table II: 988040 data points; medium core utilization, low memory
// utilization.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

/// Assign points [begin, end) of `points` (row-major, `dims` doubles each)
/// to their nearest of the `k` centroids (row-major, `dims` each): out[i] is
/// the lowest index among the centroids at the least squared euclidean
/// distance, each distance summed over d in order.  Two centroids share
/// each SSE2 instruction where available (a point's K distances in one pass
/// over d, from a lane-interleaved copy of the centroids when k x dims fits
/// `kPackedCentroidDoubles`); every lane performs the scalar operations in
/// the scalar order, so the output is bit-identical to the one-centroid
/// loop however [begin, end) is split.
void assign_points(const double* points, const double* centroids, std::size_t dims,
                   std::size_t k, int* out, std::size_t begin, std::size_t end);
inline constexpr std::size_t kPackedCentroidDoubles = 512;

/// `n` points of `dims` coordinates (row-major), Gaussian blobs around `k`
/// uniform anchors drawn from `seed`.
[[nodiscard]] std::vector<double> kmeans_points(std::size_t n, std::size_t dims, std::size_t k,
                                                std::uint64_t seed);

/// Add points [begin, end) to their clusters' coordinate sums (K x dims) and
/// counts (K), in point order (two coordinates per SSE2 add where
/// available, each lane the scalar add).
void accumulate_clusters(const double* points, const int* assignments, std::size_t dims,
                         std::size_t begin, std::size_t end, double* sums,
                         std::size_t* counts);

/// Every cluster with a non-zero count moves to sums / count; the others
/// keep their centroid.
void divide_clusters(const double* sums, const std::size_t* counts, std::size_t dims,
                     std::size_t k, double* centroids);

struct KmeansConfig {
  std::size_t points{16384};   // real (host) problem size
  std::size_t dims{8};
  std::size_t clusters{8};
  std::size_t iterations{40};
  std::uint64_t seed{42};
  /// Simulated intensity (Table II class: medium core, low memory) with the
  /// paper's enlarged size: 988040 points per iteration.  unit_time is set
  /// so one iteration spans ~124 s, keeping the division interval >= 40x
  /// the 3 s scaling interval (Section IV).
  IntensityProfile profile{0.58, 0.25, 1.25e-4, 988040.0, 6.0, 0.85};
};

class Kmeans final : public ProfiledWorkload {
 public:
  explicit Kmeans(KmeansConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "kmeans"; }
  [[nodiscard]] std::string_view description() const override {
    return "Medium core utilization, low memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return true; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] Reference reference(common::JobPool& pool) const override;
  [[nodiscard]] bool matches(const Reference& ref) const override {
    return ran_ && within(result_centroids_, ref, [](double) { return 1e-9; });
  }

  /// Points per block of the reference's assignment pass, whatever the
  /// pool's size.  Not a power of two: the launch cuts [0, N) into
  /// worker-count chunks, and a power-of-two block would group into those
  /// same point ranges at the default N, so a pool that lost or repeated a
  /// chunk would corrupt the kernel and the reference alike.
  static constexpr std::size_t kVerifyBlock = 1000;

  /// Current centroids; empty until a full-compute setup built the inputs.
  [[nodiscard]] const std::vector<double>& centroids() const { return centroids_; }
  /// The points (N x D row-major; the first K are the initial centroids);
  /// empty until a full-compute setup built the inputs.
  [[nodiscard]] const std::vector<double>& points() const { return host_points_; }
  [[nodiscard]] const KmeansConfig& config() const { return config_; }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.points; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the points and initial centroids (once; full compute only).
  void build_inputs();

  KmeansConfig config_;
  std::vector<double> host_points_;       // N x D row-major
  std::vector<double> initial_centroids_; // K x D, for reference()
  std::vector<double> centroids_;         // K x D, current
  std::vector<int> assignments_;          // N
  cudalite::DeviceBuffer<double> dev_points_;
  cudalite::DeviceBuffer<double> dev_centroids_;
  std::vector<double> result_centroids_;  // copied back at teardown
  bool ran_{false};
};

}  // namespace gg::workloads
