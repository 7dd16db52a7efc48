// srad_v2 (Rodinia): speckle-reducing anisotropic diffusion.
//
// One iteration is one diffusion update of the image: each pixel computes a
// diffusion coefficient from its local gradients and relaxes toward its
// neighbours.  Rows are independent given the previous-step image, so a
// row-range split is race-free under double buffering.
//
// Table II: 2048 columns x 2048 rows; HIGH core utilization, MEDIUM memory
// utilization (the gradient arithmetic dominates, with significant image
// traffic).
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct SradConfig {
  std::size_t rows{128};
  std::size_t cols{128};
  std::size_t iterations{30};
  double lambda{0.05};
  std::uint64_t seed{67};
  /// Table II class: high core, medium memory; 2048 sim rows/iteration.
  IntensityProfile profile{0.88, 0.48, 8.0e-4, 2048.0, 11.0, 0.9};
};

class Srad final : public ProfiledWorkload {
 public:
  explicit Srad(SradConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "srad_v2"; }
  [[nodiscard]] std::string_view description() const override {
    return "High core utilization, medium memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.rows; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the speckled image (once; full compute only).
  void build_inputs();
  void step_rows(const std::vector<double>& in, std::vector<double>& out,
                 std::size_t begin, std::size_t end) const;

  SradConfig config_;
  std::vector<double> img_in_;
  std::vector<double> img_out_;
  std::vector<double> initial_img_;
  std::vector<double> result_;
  cudalite::DeviceBuffer<double> dev_img_;
  bool ran_{false};
};

}  // namespace gg::workloads
