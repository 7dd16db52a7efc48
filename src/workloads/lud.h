// lud (Rodinia): LU decomposition.
//
// Each iteration factors a fresh diagonally dominant matrix (the paper runs
// 10 iterations of an 8192x8192 factorization).  The elimination is
// inherently sequential across pivot steps, so the real kernel runs as a
// single-range launch; the simulated intensity carries the Table II class.
//
// Table II: 10 iterations, 8192x8192; medium core utilization, low memory
// utilization.
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct LudConfig {
  std::size_t dim{96};
  std::size_t iterations{10};
  std::uint64_t seed{23};
  /// Table II class: medium core, low memory; 8192 sim units (pivot steps).
  IntensityProfile profile{0.55, 0.20, 3.5e-4, 8192.0, 9.0, 0.85};
};

class Lud final : public ProfiledWorkload {
 public:
  explicit Lud(LudConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "lud"; }
  [[nodiscard]] std::string_view description() const override {
    return "Medium core utilization, low memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return 1; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  [[nodiscard]] std::vector<double> make_matrix(std::size_t iter) const;

  LudConfig config_;
  std::vector<double> lu_;       // in-place L\U of the last factored matrix
  std::vector<double> original_; // its source matrix, for verification
  cudalite::DeviceBuffer<double> dev_matrix_;
  bool ran_{false};
};

}  // namespace gg::workloads
