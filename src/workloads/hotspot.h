// hotspot (Rodinia): thermal stencil, the paper's second division workload.
//
// An iteration is one barrier step of the transient temperature solver
// (the "common barrier point" iteration type of Section IV).  Rows are the
// division unit: rows [0, split) update on the CPU path, [split, R) on the
// GPU path; both read the previous-step grid, so the split is race-free.
// `finish_iteration` swaps the double buffers.
//
// Table II: 2048 x 2048 grid, 600 iterations; medium core utilization, low
// memory utilization.  The Rodinia hotspot GPU kernel is halo-bound, which is
// why the measured energy-optimal division on the testbed is 50/50
// (Section VII-B): the profile's cpu_slowdown of 1.0 encodes that.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct HotspotConfig {
  std::size_t rows{192};  // real (host) problem size
  std::size_t cols{192};
  std::size_t iterations{30};
  std::uint64_t seed{7};
  /// Table II class: medium core, low memory; 2048 sim rows per iteration,
  /// unit_time set so one iteration spans ~123 s (>= 40x scaling interval).
  IntensityProfile profile{0.50, 0.22, 6.0e-2, 2048.0, 1.0, 0.85};
};

class Hotspot final : public ProfiledWorkload {
 public:
  explicit Hotspot(HotspotConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "hotspot"; }
  [[nodiscard]] std::string_view description() const override {
    return "Medium core utilization, low memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return true; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

  [[nodiscard]] const HotspotConfig& config() const { return config_; }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.rows; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the initial temperatures and power map (once; full compute
  /// only).
  void build_inputs();
  void step_rows(std::size_t begin, std::size_t end);
  static void reference_step(const std::vector<double>& in, std::vector<double>& out,
                             const std::vector<double>& power, std::size_t rows,
                             std::size_t cols);

  HotspotConfig config_;
  std::vector<double> temp_in_;
  std::vector<double> temp_out_;
  std::vector<double> power_;
  std::vector<double> initial_temp_;
  std::vector<double> result_;
  cudalite::DeviceBuffer<double> dev_temp_a_;
  cudalite::DeviceBuffer<double> dev_temp_b_;
  cudalite::DeviceBuffer<double> dev_power_;
  bool ran_{false};
};

}  // namespace gg::workloads
