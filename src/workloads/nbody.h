// nbody (CUDA SDK): all-pairs gravitational simulation.
//
// One iteration is one timestep: every body accumulates force from all
// bodies (reading the previous-step positions) and integrates, so a
// body-range split is race-free under double buffering.
//
// Section III-A identifies nbody as core-bounded: arithmetic dominates
// (N^2 interactions against N loads), so the profile carries high core and
// moderate memory utilization — throttling memory is nearly free, throttling
// cores is not (Fig. 1).
//
// Every advance of the bodies, the parallel chunks and `verify()`'s
// reference alike, goes through `advance_bodies`: the reference runs the
// same per-body kernel over [0, N) from the initial state, in fixed blocks of
// 100 bodies on the pool it is handed (the launch splits by worker count).
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

/// One timestep's buffers, 3N doubles per position/velocity array (x, y, z
/// interleaved per body), N masses.
struct NbodyStep {
  const double* pos_in;
  const double* vel_in;
  const double* mass;
  double* pos_out;
  double* vel_out;
  std::size_t bodies;
  double dt;
};

/// Advance bodies [begin, end) one timestep: accumulate each body's softened
/// gravity from all `bodies` inputs (j ascending), then integrate velocity and
/// position.  Two bodies share each SSE2 instruction where available; every
/// lane performs the scalar operations in the scalar order, so the output is
/// bit-identical to the one-body loop however [begin, end) is split.
void advance_bodies(const NbodyStep& step, std::size_t begin, std::size_t end);

struct NbodyConfig {
  std::size_t bodies{1024};
  std::size_t iterations{50};  // Table II: 50 iterations
  double dt{1e-3};
  std::uint64_t seed{31};
  /// Core-bounded: high core, moderate memory; 131072 sim units/iteration.
  IntensityProfile profile{0.96, 0.38, 1.5e-5, 131072.0, 14.0, 0.9};
};

class Nbody final : public ProfiledWorkload {
 public:
  explicit Nbody(NbodyConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "nbody"; }
  [[nodiscard]] std::string_view description() const override {
    return "High core utilization (core-bounded), moderate memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

  /// Bodies per block of verify()'s reference, whatever the pool's size.
  /// The launch cuts [0, N) into worker-count chunks instead, and no chunk
  /// of the reference covers the same bodies as a launch chunk, so a pool
  /// that lost or repeated a chunk would not corrupt both alike.
  static constexpr std::size_t kVerifyBlock = 100;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.bodies; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the initial bodies (once; full compute only).
  void build_inputs();
  void step_range(std::size_t begin, std::size_t end);

  NbodyConfig config_;
  // Structure-of-arrays, double buffered: x/y/z position + velocity.
  std::vector<double> pos_in_, pos_out_;  // 3N each
  std::vector<double> vel_in_, vel_out_;
  std::vector<double> mass_;
  std::vector<double> initial_pos_, initial_vel_;
  std::vector<double> result_pos_;
  cudalite::DeviceBuffer<double> dev_pos_;
  bool ran_{false};
};

}  // namespace gg::workloads
