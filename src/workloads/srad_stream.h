// srad_stream: streaming diffusion over an unbounded frame sequence.
//
// Each iteration pulls `frames_per_iteration` fresh frames from a seeded
// generator keyed by the GLOBAL frame index (so host memory stays
// O(frames_per_iteration x frame), independent of stream length), pushes each
// through upload -> diffusion kernel -> download -> CPU checksum, and folds
// the per-frame checksums into a running total in frame order at the
// iteration barrier.  With `pipelined` on, frames ride `stream_depth`
// in-order streams round-robin (slot buffers double-buffer the device side);
// with it off the same ops run on one stream with a blocking synchronize per
// frame.  Transfers dominate by construction (`sim_*_bytes`), so the pipeline
// speedup measures DMA/kernel overlap.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct SradStreamConfig {
  std::size_t rows{64};
  std::size_t cols{64};
  std::size_t iterations{10};
  /// Frames streamed per iteration (the CLI's --chunks).
  std::size_t frames_per_iteration{8};
  /// Concurrent in-flight frames when pipelined.
  std::size_t stream_depth{3};
  bool pipelined{true};
  std::uint64_t seed{7};
  /// Diffusion update factor.
  double lambda{0.125};
  /// Simulated transfer sizes per frame (up ~0.5 s, down ~0.2 s at 3 GB/s).
  double sim_h2d_bytes{1.5e9};
  double sim_d2h_bytes{6.0e8};
  /// Per-frame CPU checksum time at peak clocks.
  double checksum_seconds{0.10};
  /// Diffusion-kernel intensity: unit_time_s is the per-frame kernel time at
  /// peak clocks (memory-heavy, like srad_v2).
  IntensityProfile profile{0.25, 0.80, 0.35, 8.0, 1.0, 0.85};
};

class SradStream final : public Workload {
 public:
  explicit SradStream(SradStreamConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "srad_stream"; }
  [[nodiscard]] std::string_view description() const override {
    return "Streaming diffusion over unbounded chunked frames; transfer-bound";
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
    return ran_ && within(std::vector<double>{checksum_}, ref,
                          [](double r) { return 1e-9 * std::max(1.0, std::fabs(r)); });
  }

  [[nodiscard]] const SradStreamConfig& config() const { return config_; }
  [[nodiscard]] double checksum() const { return checksum_; }

 private:
  [[nodiscard]] std::size_t frame_elems() const { return config_.rows * config_.cols; }
  /// Deterministic frame synthesis keyed by the global frame index.
  void generate_frame(std::size_t global_frame, double* out) const;
  /// One diffusion step over rows [row_begin, row_end) of `in` into `out`.
  void diffuse_rows(const double* in, double* out, std::size_t row_begin,
                    std::size_t row_end) const;

  SradStreamConfig config_;
  std::vector<double> scratch_frame_;            // reused across enqueues (eager H2D)
  std::vector<double> host_out_;                 // frames_per_iteration x frame
  std::vector<double> frame_checksums_;          // per frame-in-iteration
  std::vector<cudalite::DeviceBuffer<double>> dev_in_;   // per slot
  std::vector<cudalite::DeviceBuffer<double>> dev_out_;  // per slot
  std::vector<cudalite::Stream> streams_;
  double checksum_{0.0};
  std::size_t pending_d2h_{0};
  std::size_t pending_checksums_{0};
  bool ran_{false};
};

}  // namespace gg::workloads
