// QG / quasirandomGenerator (CUDA SDK): Niederreiter-style quasirandom
// sequence generation with an inverse-CND transform pass.
//
// The generator alternates between a compute-heavy phase (sequence +
// Moro-inverse transform) and a light bookkeeping phase, which is why the
// paper classifies QG as "utilizations highly fluctuate" (Table II) — the
// case that stresses the WMA scaler's responsiveness.
//
// Table II: 600 iterations, 16777216 points.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/sobol.h"
#include "src/workloads/workload.h"

namespace gg::workloads {

struct QrngConfig {
  std::size_t points{8192};   // real points per iteration
  std::size_t iterations{45}; // paper enlargement: 600 (configurable)
  std::uint64_t seed{59};
  /// Heavy phase (generation + transform): high core, low-moderate memory.
  IntensityProfile heavy_profile{0.90, 0.30, 8.0e-8, 16777216.0, 10.0, 0.9};
  /// Light phase (reseed/bookkeeping): low everything.
  IntensityProfile light_profile{0.25, 0.12, 8.0e-8, 16777216.0, 10.0, 0.9};
  /// Phase length in iterations (alternating heavy/light).
  std::size_t phase_length{5};
};

class Qrng final : public ProfiledWorkload {
 public:
  explicit Qrng(QrngConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "QG"; }
  [[nodiscard]] std::string_view description() const override {
    return "Utilizations highly fluctuate";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] Reference reference(common::JobPool& pool) const override;
  [[nodiscard]] bool matches(const Reference& ref) const override {
    return ran_ && within(sums_, ref, [](double s) { return 1e-9 * (1.0 + std::fabs(s)); });
  }

  /// Number of Sobol dimensions cycled across iterations.
  static constexpr std::size_t kDimensions = 4;

  [[nodiscard]] const std::vector<double>& iteration_sums() const { return sums_; }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.points; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  QrngConfig config_;
  Sobol sobol_{kDimensions};
  std::vector<double> values_;  // per-point output of the current iteration
  std::vector<double> sums_;    // per-iteration reduction results
  cudalite::DeviceBuffer<double> dev_values_;
  bool ran_{false};
};

}  // namespace gg::workloads
