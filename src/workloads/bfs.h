// bfs (Rodinia): level-synchronous breadth-first search.
//
// Structured as rounds of frontier relaxation (Bellman-Ford style): each
// iteration relaxes every vertex against its in-neighbours' distances from
// the previous round, which is exactly what the level-synchronous Rodinia
// kernel computes per launch and is race-free under a vertex-range split.
//
// Table II: 65536 iterations enlargement; high core AND high memory
// utilization — the class for which the paper reports the smallest scaling
// savings (throttling anything hurts).
#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

struct BfsConfig {
  std::size_t nodes{8192};
  std::size_t avg_degree{8};
  /// Relaxation rounds.  The paper enlarges bfs to 65536 iterations for
  /// stable power readings; 96 rounds (~2.3 simulated minutes) is enough to
  /// amortize the clock ramp from the driver-default lowest levels.
  std::size_t iterations{96};
  std::uint64_t seed{11};
  /// Table II class: high core, high memory; 65536 sim units/iteration.
  IntensityProfile profile{0.88, 0.86, 2.2e-5, 65536.0, 12.0, 0.85};
};

class Bfs final : public ProfiledWorkload {
 public:
  explicit Bfs(BfsConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "bfs"; }
  [[nodiscard]] std::string_view description() const override {
    return "High core and memory utilization";
  }
  [[nodiscard]] std::size_t iterations() const override { return config_.iterations; }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void finish_iteration(cudalite::Runtime& rt, std::size_t iter) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] bool verify(common::JobPool& pool) const override;

  [[nodiscard]] const std::vector<int>& distances() const { return result_; }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.nodes; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  /// Generate the graph (once; full compute only).
  void build_graph();

  BfsConfig config_;
  // CSR of in-edges.
  std::vector<std::size_t> row_offsets_;
  std::vector<std::size_t> in_neighbors_;
  std::vector<int> dist_in_;
  std::vector<int> dist_out_;
  std::vector<int> result_;
  cudalite::DeviceBuffer<int> dev_dist_;
  bool ran_{false};
};

}  // namespace gg::workloads
