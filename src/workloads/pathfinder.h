// pathfinder / PF (Rodinia): dynamic-programming shortest path over a grid.
//
// One iteration processes one grid row: cost'[c] = weight(t, c) +
// min(cost[c-1], cost[c], cost[c+1]).  Columns are independent within a row,
// so a column-range split is race-free; grid weights are generated on the fly
// from a hash so the paper-scale grid needs no storage.
//
// Table II: 2048x2048 dimensions; LOW core and memory utilization — the DP
// row kernel is tiny and launch-latency dominated, the class where frequency
// scaling saves the most (Fig. 6).
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct PathfinderConfig {
  std::size_t cols{4096};
  std::size_t iterations{60};  // rows processed
  std::uint64_t seed{47};
  /// Table II class: low core, low memory; 2048 sim units/iteration.
  IntensityProfile profile{0.30, 0.20, 5.0e-4, 2048.0, 4.0, 0.8};
};

class Pathfinder final : public ProfiledWorkload {
 public:
  explicit Pathfinder(PathfinderConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "pathfinder"; }
  [[nodiscard]] std::string_view description() const override {
    return "Low core and memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

  /// Deterministic grid weight at (row, col).
  [[nodiscard]] int weight(std::size_t row, std::size_t col) const;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.cols; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  PathfinderConfig config_;
  std::vector<long long> cost_in_;
  std::vector<long long> cost_out_;
  std::vector<long long> result_;
  cudalite::DeviceBuffer<long long> dev_cost_;
  bool ran_{false};
};

}  // namespace gg::workloads
