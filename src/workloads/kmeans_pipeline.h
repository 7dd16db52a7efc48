// kmeans_pipeline: the three-stage double-buffered pipeline workload of the
// asynchronous cudalite stack.
//
// Each iteration streams the point set through the GPU in `chunks` slices:
// upload (H2D on the DMA copy engine) -> assign (kernel) -> download of the
// chunk's assignments (D2H) -> per-chunk partial centroid reduction on the
// CPU.  With `pipelined` on, the stages run on `stream_depth` double-buffered
// slot pairs (one copy stream + one compute stream per slot, chained with
// record_event / stream_wait_event), so chunk c+1's upload overlaps chunk c's
// assignment in simulated time; with it off the same ops are issued on one
// stream with a blocking synchronize after every chunk — the synchronous
// baseline the makespan comparison is against.
//
// The simulated transfers are deliberately large (`sim_h2d_bytes`, decoupled
// from the real buffer exactly like WorkEstimate decouples kernel cost), so
// the workload is TRANSFER-BOUND: the copy engine is the pipeline bottleneck
// and the overlap win is the difference between the serialized and the
// pipelined schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct KmeansPipelineConfig {
  std::size_t points{8192};  // real (host) problem size per iteration
  std::size_t dims{8};
  std::size_t clusters{8};
  std::size_t iterations{12};
  /// Slices per iteration; chunk sizes are balanced (any value in
  /// [1, points] works, the CLI exposes it as --chunks).
  std::size_t chunks{8};
  /// Double-buffer slots (concurrent in-flight chunks) when pipelined.
  std::size_t stream_depth{3};
  /// False = synchronous baseline: same ops, one stream, a blocking
  /// synchronize per chunk.
  bool pipelined{true};
  std::uint64_t seed{42};
  /// Simulated transfer sizes per chunk (3 GB/s bus: 1.5e9 B ~ 0.5 s up,
  /// 1.2e8 B ~ 40 ms down) — the knobs that make the pipeline
  /// transfer-bound.
  double sim_h2d_bytes{1.5e9};
  double sim_d2h_bytes{1.2e8};
  /// Per-chunk CPU partial-reduction time at peak clocks.
  double reduce_seconds{0.30};
  /// Assignment-kernel intensity: unit_time_s is the per-chunk kernel time
  /// at peak clocks; units_per_iteration must equal `chunks`.
  IntensityProfile profile{0.60, 0.35, 0.45, 8.0, 1.0, 0.85};
};

class KmeansPipeline final : public Workload {
 public:
  explicit KmeansPipeline(KmeansPipelineConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "kmeans_pipeline"; }
  [[nodiscard]] std::string_view description() const override {
    return "Transfer-bound chunked kmeans; three-stage double-buffered pipeline";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  /// Ignores `shares` and runs on GPU 0 on the pipeline's own streams;
  /// every GPU slot past the first signals immediately.
  void run_iteration(cudalite::Runtime& rt, std::vector<cudalite::Stream>& streams,
                     std::size_t iter, const ShareVector& shares,
                     std::function<void(std::size_t)> on_done) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] Reference reference(common::JobPool& pool) const override;
  [[nodiscard]] bool matches(const Reference& ref) const override {
    return ran_ && within(result_centroids_, ref, [](double) { return 1e-9; });
  }

  [[nodiscard]] const KmeansPipelineConfig& config() const { return config_; }
  /// Current centroids; empty until a full-compute setup built the inputs.
  [[nodiscard]] const std::vector<double>& centroids() const { return centroids_; }

 private:
  /// Generate the points and initial centroids (once; full compute only).
  void build_inputs();
  /// Balanced chunk ranges: chunk c covers [chunk_begin(c), chunk_begin(c+1)).
  [[nodiscard]] std::size_t chunk_begin(std::size_t c) const;
  /// Assign points [b, e) (chunk-local indices) from the slot buffer — the
  /// disjoint sub-range a single launch_range worker owns.
  void assign_chunk(std::size_t slot, std::size_t b, std::size_t e);
  void reduce_chunk(std::size_t c);
  void submit_reduce(cudalite::Runtime& rt, std::size_t c,
                     const std::function<void(std::size_t)>& on_done);

  KmeansPipelineConfig config_;
  std::vector<double> host_points_;        // N x D row-major
  std::vector<double> initial_centroids_;  // K x D, for reference()
  std::vector<double> centroids_;          // K x D, current
  std::vector<int> chunk_assign_;          // N, per-chunk D2H destinations
  /// Per-chunk partial reductions, merged in chunk order at the reduction
  /// point (reference() mirrors the exact same summation grouping).
  std::vector<std::vector<double>> partial_sums_;        // chunks x (K x D)
  std::vector<std::vector<std::size_t>> partial_counts_; // chunks x K
  std::vector<cudalite::DeviceBuffer<double>> dev_points_;  // per slot
  std::vector<cudalite::DeviceBuffer<int>> dev_assign_;     // per slot
  cudalite::DeviceBuffer<double> dev_centroids_;
  std::vector<cudalite::Stream> streams_;  // pipelined: [copy, compute] per slot
  std::vector<double> result_centroids_;   // copied back at teardown
  std::size_t pending_d2h_{0};
  std::size_t pending_reduce_{0};
  bool ran_{false};
};

}  // namespace gg::workloads
