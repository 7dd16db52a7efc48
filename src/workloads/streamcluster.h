// streamcluster / SC (Rodinia, from PARSEC): online clustering.
//
// Each iteration is one `pgain` round: a candidate centre is proposed and
// every point computes its distance to it to evaluate the reassignment gain;
// the centre is opened if the total gain is positive.  The distance pass is
// the memory-streaming kernel that makes SC memory-bounded (Section III-A),
// and the alternation between long streaming passes and short bookkeeping
// phases is why Table II classifies its utilizations as highly fluctuating.
//
// Table II: 65536 points with 512 dimensions.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct StreamclusterConfig {
  std::size_t points{4096};  // real problem size
  std::size_t dims{32};
  std::size_t iterations{40};  // pgain rounds
  std::uint64_t seed{83};
  /// Memory-streaming phase.  Both anchors follow the paper: 0.70 core
  /// utilization puts the core-throttling knee at ~410 MHz (0.70 x 576,
  /// Section III-A) and 0.70 memory utilization makes the WMA equilibrium
  /// the 820 MHz memory level Fig. 5b converges to.
  IntensityProfile heavy_profile{0.70, 0.70, 2.2e-5, 65536.0, 7.0, 0.8};
  /// Bookkeeping phase: light on both.
  IntensityProfile light_profile{0.30, 0.40, 2.2e-5, 65536.0, 7.0, 0.8};
  /// Phase length in iterations (~10 s per phase at peak clocks).
  std::size_t phase_length{7};
  /// Iterations of low activity before the stream ramps up (reproduces the
  /// warm-up ramp visible in the Fig. 5 trace).
  std::size_t warmup_iterations{3};
};

class Streamcluster final : public ProfiledWorkload {
 public:
  explicit Streamcluster(StreamclusterConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "streamcluster"; }
  [[nodiscard]] std::string_view description() const override {
    return "Utilizations highly fluctuate";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

  /// Total assignment cost after a full run (the clustering objective).
  [[nodiscard]] double total_cost() const;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.points; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the point coordinates (once; full compute only).
  void build_inputs();
  [[nodiscard]] std::size_t candidate_for(std::size_t iter) const;
  [[nodiscard]] double dist2(std::size_t a, std::size_t b) const;

  StreamclusterConfig config_;
  std::vector<double> coords_;     // points x dims
  std::vector<double> assign_cost_;  // current per-point cost
  std::vector<double> cand_cost_;    // per-point cost to the candidate
  std::vector<double> final_costs_;
  cudalite::DeviceBuffer<double> dev_coords_;
  bool ran_{false};
};

}  // namespace gg::workloads
