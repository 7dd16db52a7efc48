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
  void assign_range(const double* points, std::size_t begin, std::size_t end);

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
