#include "src/workloads/bfs.h"

#include <limits>
#include <utility>

#include "src/common/rng.h"

namespace gg::workloads {

namespace {
constexpr int kInf = std::numeric_limits<int>::max() / 2;

/// One round for vertices [begin, end): each takes the least of its own
/// distance and one more than each in-neighbour's, all read from `in`.
void relax(const BfsGraph& g, const int* in, int* out, std::size_t begin, std::size_t end) {
  for (std::size_t v = begin; v < end; ++v) {
    int best = in[v];
    for (std::size_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      const int cand = in[g.in_neighbors[e]];
      if (cand < kInf && cand + 1 < best) best = cand + 1;
    }
    out[v] = best;
  }
}
}  // namespace

BfsGraph build_bfs_graph(const BfsConfig& config) {
  const std::size_t n = config.nodes;
  const std::size_t extra_edges = n * (config.avg_degree - 1);
  // Two passes over the same draws: count each node's in-degree into
  // row_offsets[v + 1], then fill each node's slice through a cursor.
  BfsGraph g;
  g.row_offsets.assign(n + 1, 0);
  Rng count_rng(config.seed);
  Rng fill_rng = count_rng;
  for (std::size_t v = 1; v < n; ++v) ++g.row_offsets[v + 1];
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const std::size_t u = count_rng.uniform_int(n);
    const std::size_t v = count_rng.uniform_int(n);
    if (u != v) ++g.row_offsets[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.row_offsets[v + 1] += g.row_offsets[v];
  g.in_neighbors.resize(g.row_offsets[n]);
  std::vector<std::size_t> cursor(g.row_offsets.begin(), g.row_offsets.end() - 1);
  for (std::size_t v = 1; v < n; ++v) g.in_neighbors[cursor[v]++] = v - 1;
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const std::size_t u = fill_rng.uniform_int(n);
    const std::size_t v = fill_rng.uniform_int(n);
    if (u != v) g.in_neighbors[cursor[v]++] = u;
  }
  return g;
}

Bfs::Bfs(BfsConfig config) : config_(config) {}

IntensityProfile Bfs::profile(std::size_t /*iter*/) const { return config_.profile; }

void Bfs::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.nodes;
  if (rt.compute_enabled()) {
    if (graph_.row_offsets.empty()) graph_ = build_bfs_graph(config_);
    dist_in_.assign(n, kInf);
    dist_in_[0] = 0;  // source
    dist_out_ = dist_in_;
  }
  dev_dist_ = rt.alloc<int>(n);
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), n);
  round_relaxed_ = false;
  fixed_ = false;
  rounds_relaxed_ = 0;
  ran_ = false;
}

void Bfs::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  if (fixed_) return;  // both buffers hold the fixed point
  relax(graph_, dist_in_.data(), dist_out_.data(), begin, end);
  if (begin == 0) round_relaxed_ = true;
}

void Bfs::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);  // identical relaxation
}

void Bfs::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  if (round_relaxed_) {
    ++rounds_relaxed_;
    fixed_ = dist_in_ == dist_out_;
    round_relaxed_ = false;
  }
  std::swap(dist_in_, dist_out_);
}

void Bfs::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), config_.nodes);
  rt.memcpy_d2h(result_, dev_dist_);
  rt.free(dev_dist_);
  ran_ = rt.compute_enabled();
}

Reference Bfs::reference(common::JobPool& /*pool*/) const {
  if (graph_.row_offsets.empty()) return {};
  // Serial: the same rounds from the source, until the first that changes
  // nothing or the last.
  const std::size_t n = config_.nodes;
  std::vector<int> in(n, kInf);
  std::vector<int> out(n, kInf);
  in[0] = 0;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    relax(graph_, in.data(), out.data(), 0, n);
    std::swap(in, out);
    if (in == out) break;
  }
  return {in.begin(), in.end()};
}

}  // namespace gg::workloads
