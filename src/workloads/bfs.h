// bfs (Rodinia): level-synchronous breadth-first search.
//
// Structured as rounds of frontier relaxation (Bellman-Ford style): each
// iteration relaxes every vertex against its in-neighbours' distances from
// the previous round, which is exactly what the level-synchronous Rodinia
// kernel computes per launch and is race-free under a vertex-range split.
//
// Every round, the run's chunks and `reference()` alike, goes through one
// `relax` kernel.  Relaxation is deterministic, so a round whose output
// equals its input has reached a fixed point: every later round would
// reproduce it.  The run (in `finish_iteration`) and the reference both
// compare each computed round's input with its output and stop relaxing
// once they are equal; the final distances are those of every round.  At
// the default config round 7 of 96 is the first that changes nothing.
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

/// In-edge CSR: node v's in-neighbours are
/// `in_neighbors[row_offsets[v] .. row_offsets[v + 1])`.
struct BfsGraph {
  std::vector<std::size_t> row_offsets;
  std::vector<std::size_t> in_neighbors;
};

/// The graph of `config`: a chain edge v-1 -> v for every v >= 1 (so every
/// distance is finite), then nodes x (avg_degree - 1) random edges u -> v
/// drawn from `config.seed`, self-loops dropped.  Each node lists its chain
/// in-neighbour first, then the drawn ones in draw order.
[[nodiscard]] BfsGraph build_bfs_graph(const BfsConfig& config);

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
  [[nodiscard]] Reference reference(common::JobPool& pool) const override;
  [[nodiscard]] bool matches(const Reference& ref) const override {
    return ran_ && within(result_, ref, [](double) { return 0.0; });
  }

  [[nodiscard]] const std::vector<int>& distances() const { return result_; }
  /// Rounds of the last full run whose chunks relaxed every vertex: up to
  /// and including the first whose output equalled its input.
  [[nodiscard]] std::size_t rounds_relaxed() const { return rounds_relaxed_; }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return config_.nodes; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  BfsConfig config_;
  BfsGraph graph_;  // built once, by the first full-compute setup
  std::vector<int> dist_in_;
  std::vector<int> dist_out_;
  std::vector<int> result_;
  cudalite::DeviceBuffer<int> dev_dist_;
  /// Set by the chunk that relaxes vertex 0, so only a round that was
  /// actually computed is compared at its merge (a lost launch leaves
  /// `dist_out_` holding an older round).
  bool round_relaxed_{false};
  /// `dist_in_` is a fixed point: chunks no longer relax.
  bool fixed_{false};
  std::size_t rounds_relaxed_{0};
  bool ran_{false};
};

}  // namespace gg::workloads
