#include "src/workloads/bfs.h"

#include <algorithm>
#include <limits>

#include "src/common/rng.h"

namespace gg::workloads {

namespace {
constexpr int kInf = std::numeric_limits<int>::max() / 2;
}

Bfs::Bfs(BfsConfig config) : config_(config) {}

void Bfs::build_graph() {
  if (!row_offsets_.empty()) return;
  Rng rng(config_.seed);
  const std::size_t n = config_.nodes;
  // Random out-edges, then transpose into an in-edge CSR.  A chain edge
  // v-1 -> v guarantees connectivity so distances are finite.
  std::vector<std::vector<std::size_t>> in_adj(n);
  for (std::size_t v = 1; v < n; ++v) in_adj[v].push_back(v - 1);
  const std::size_t extra_edges = n * (config_.avg_degree - 1);
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const std::size_t u = rng.uniform_int(n);
    const std::size_t v = rng.uniform_int(n);
    if (u != v) in_adj[v].push_back(u);
  }
  row_offsets_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) row_offsets_[v + 1] = row_offsets_[v] + in_adj[v].size();
  in_neighbors_.resize(row_offsets_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    std::copy(in_adj[v].begin(), in_adj[v].end(),
              in_neighbors_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[v]));
  }
}

IntensityProfile Bfs::profile(std::size_t /*iter*/) const { return config_.profile; }

void Bfs::setup(cudalite::Runtime& rt) {
  const std::size_t n = config_.nodes;
  if (rt.compute_enabled()) {
    build_graph();
    dist_in_.assign(n, kInf);
    dist_in_[0] = 0;  // source
    dist_out_ = dist_in_;
  }
  dev_dist_ = rt.alloc<int>(n);
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), n);
  ran_ = false;
}

void Bfs::gpu_chunk(std::size_t begin, std::size_t end, std::size_t /*iter*/) {
  for (std::size_t v = begin; v < end; ++v) {
    int best = dist_in_[v];
    for (std::size_t e = row_offsets_[v]; e < row_offsets_[v + 1]; ++e) {
      const int cand = dist_in_[in_neighbors_[e]];
      if (cand < kInf && cand + 1 < best) best = cand + 1;
    }
    dist_out_[v] = best;
  }
}

void Bfs::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);  // identical relaxation
}

void Bfs::finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) {
  std::swap(dist_in_, dist_out_);
}

void Bfs::teardown(cudalite::Runtime& rt) {
  rt.memcpy_h2d(dev_dist_, dist_in_.data(), config_.nodes);
  rt.memcpy_d2h(result_, dev_dist_);
  rt.free(dev_dist_);
  ran_ = rt.compute_enabled();
}

Reference Bfs::reference(common::JobPool& /*pool*/) const {
  if (row_offsets_.empty()) return {};
  // Serial reference: identical rounds of relaxation.
  const std::size_t n = config_.nodes;
  std::vector<int> in(n, kInf);
  std::vector<int> out(n, kInf);
  in[0] = 0;
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    for (std::size_t v = 0; v < n; ++v) {
      int best = in[v];
      for (std::size_t e = row_offsets_[v]; e < row_offsets_[v + 1]; ++e) {
        const int cand = in[in_neighbors_[e]];
        if (cand < kInf && cand + 1 < best) best = cand + 1;
      }
      out[v] = best;
    }
    std::swap(in, out);
  }
  return {in.begin(), in.end()};
}

}  // namespace gg::workloads
