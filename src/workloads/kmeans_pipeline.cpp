#include "src/workloads/kmeans_pipeline.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/sim/fault.h"

namespace gg::workloads {

namespace {
double dist2(const double* p, const double* c, std::size_t dims) {
  double s = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = p[d] - c[d];
    s += diff * diff;
  }
  return s;
}
}  // namespace

KmeansPipeline::KmeansPipeline(KmeansPipelineConfig config) : config_(config) {
  if (config_.chunks == 0 || config_.chunks > config_.points) {
    throw std::invalid_argument("KmeansPipeline: chunks must be in [1, points]");
  }
  if (config_.stream_depth == 0) {
    throw std::invalid_argument("KmeansPipeline: stream_depth must be >= 1");
  }
}

void KmeansPipeline::build_inputs() {
  if (!host_points_.empty()) return;
  Rng rng(config_.seed);
  const std::size_t n = config_.points;
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  host_points_.resize(n * dims);
  std::vector<double> anchors(k * dims);
  for (auto& a : anchors) a = rng.uniform(-10.0, 10.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = rng.uniform_int(k);
    for (std::size_t d = 0; d < dims; ++d) {
      host_points_[i * dims + d] = anchors[blob * dims + d] + rng.normal(0.0, 1.0);
    }
  }
  initial_centroids_.assign(host_points_.begin(),
                            host_points_.begin() + static_cast<std::ptrdiff_t>(k * dims));
}

IntensityProfile KmeansPipeline::profile(std::size_t /*iter*/) const {
  IntensityProfile p = config_.profile;
  p.units_per_iteration = static_cast<double>(config_.chunks);
  return p;
}

std::size_t KmeansPipeline::chunk_begin(std::size_t c) const {
  const std::size_t base = config_.points / config_.chunks;
  const std::size_t rem = config_.points % config_.chunks;
  return c * base + std::min(c, rem);
}

void KmeansPipeline::setup(cudalite::Runtime& rt) {
  const std::size_t slots = config_.pipelined ? config_.stream_depth : 1;
  const std::size_t max_chunk =
      config_.points / config_.chunks + (config_.points % config_.chunks != 0 ? 1 : 0);
  dev_points_.clear();
  dev_assign_.clear();
  for (std::size_t s = 0; s < slots; ++s) {
    dev_points_.push_back(rt.alloc<double>(max_chunk * config_.dims));
    dev_assign_.push_back(rt.alloc<int>(max_chunk));
  }
  const std::size_t kd = config_.clusters * config_.dims;
  dev_centroids_ = rt.alloc<double>(kd);
  if (rt.compute_enabled()) {
    build_inputs();
    centroids_ = initial_centroids_;
    chunk_assign_.assign(config_.points, 0);
    partial_sums_.assign(config_.chunks, std::vector<double>(kd, 0.0));
    partial_counts_.assign(config_.chunks, std::vector<std::size_t>(config_.clusters, 0));
  }
  rt.memcpy_h2d(dev_centroids_, centroids_.data(), kd);
  streams_.clear();
  if (config_.pipelined) {
    // One copy stream + one compute stream per double-buffer slot.
    for (std::size_t s = 0; s < 2 * slots; ++s) streams_.push_back(rt.create_stream());
  } else {
    streams_.push_back(rt.create_stream());
  }
  ran_ = false;
}

void KmeansPipeline::assign_chunk(std::size_t slot, std::size_t b, std::size_t e) {
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  const double* points = dev_points_[slot].data();
  int* out = dev_assign_[slot].data();
  for (std::size_t i = b; i < e; ++i) {
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (std::size_t cl = 0; cl < k; ++cl) {
      const double d = dist2(&points[i * dims], &centroids_[cl * dims], dims);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(cl);
      }
    }
    out[i] = best_c;
  }
}

void KmeansPipeline::reduce_chunk(std::size_t c) {
  const std::size_t dims = config_.dims;
  const std::size_t begin = chunk_begin(c);
  const std::size_t end = chunk_begin(c + 1);
  std::vector<double>& sums = partial_sums_[c];
  std::vector<std::size_t>& counts = partial_counts_[c];
  std::fill(sums.begin(), sums.end(), 0.0);
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  for (std::size_t i = begin; i < end; ++i) {
    const auto cl = static_cast<std::size_t>(chunk_assign_[i]);
    ++counts[cl];
    for (std::size_t d = 0; d < dims; ++d) sums[cl * dims + d] += host_points_[i * dims + d];
  }
}

void KmeansPipeline::submit_reduce(cudalite::Runtime& rt, std::size_t c,
                                   const std::function<void(std::size_t)>& on_done) {
  IntensityProfile rp = config_.profile;
  rp.unit_time_s = config_.reduce_seconds;
  rp.cpu_slowdown = 1.0;
  auto& platform = rt.platform();
  const sim::CpuWork work =
      make_cpu_work(platform.cpu().spec(), platform.cpu().table().peak(), rp, 1.0);
  auto signal = [this, on_done] {
    if (--pending_reduce_ == 0 && on_done) on_done(0);
  };
  if (!rt.host_submit(work, [this, c] { reduce_chunk(c); }, signal)) {
    // Rejected host chunk: compute inline (zero simulated cost) so the
    // pipeline keeps flowing and the results stay correct.
    sim::FaultInjector* faults = platform.faults();
    if (faults != nullptr) {
      faults->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kForcedCompletion);
    }
    if (rt.compute_enabled()) reduce_chunk(c);
    signal();
  }
}

void KmeansPipeline::run_iteration(cudalite::Runtime& rt,
                                   std::vector<cudalite::Stream>& streams,
                                   std::size_t iter, const ShareVector& /*shares*/,
                                   std::function<void(std::size_t)> on_done) {
  if (iter >= config_.iterations) {
    throw std::out_of_range("KmeansPipeline: iteration index");
  }
  for (std::size_t slot = 2; slot <= streams.size(); ++slot) {
    if (on_done) on_done(slot);
  }
  auto& platform = rt.platform();
  const cudalite::WorkEstimate est =
      make_gpu_estimate(platform.gpu().spec(), platform.gpu().core_table().peak(),
                        platform.gpu().mem_table().peak(), profile(iter), 1.0);
  pending_d2h_ = config_.chunks;
  pending_reduce_ = config_.chunks;

  for (std::size_t c = 0; c < config_.chunks; ++c) {
    const std::size_t slot = config_.pipelined ? c % config_.stream_depth : 0;
    cudalite::Stream& cs = streams_[config_.pipelined ? 2 * slot : 0];
    cudalite::Stream& ks = streams_[config_.pipelined ? 2 * slot + 1 : 0];
    const std::size_t begin = chunk_begin(c);
    const std::size_t count = chunk_begin(c + 1) - begin;

    // Stage 1: upload the chunk's points into the slot buffer.  Model-only
    // runs have no host data: the copy moves nothing and charges the same.
    const bool real = rt.compute_enabled();
    rt.memcpy_h2d_async(cs, dev_points_[slot],
                        real ? host_points_.data() + begin * config_.dims : nullptr,
                        count * config_.dims, config_.sim_h2d_bytes);
    if (config_.pipelined) {
      // Compute must not start before the slot's upload landed.
      const cudalite::Event uploaded = rt.record_event(cs);
      rt.stream_wait_event(ks, uploaded);
    }

    // Stage 2: assignment kernel over the slot buffer.
    if (!rt.launch_range(
            ks, count, est,
            [this, slot](std::size_t b, std::size_t e) {
              assign_chunk(slot, b, e);
            })) {
      // Rejected launch: force-complete inline so the stream-ordered D2H
      // below still downloads correct data (the injector records the
      // degradation; the simulated kernel charge is lost).
      sim::FaultInjector* faults = platform.faults();
      if (faults != nullptr) {
        faults->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kForcedCompletion,
                     ks.device());
      }
      if (rt.compute_enabled()) assign_chunk(slot, 0, count);
    }

    // Stage 3: download the chunk's assignments into its own host region
    // (per-chunk, never per-slot: the eager copy of a later chunk must not
    // clobber data this chunk's reduce stage reads at simulated time).
    rt.memcpy_d2h_async(
        ks, real ? chunk_assign_.data() + begin : nullptr, dev_assign_[slot], count,
        config_.sim_d2h_bytes,
        [this, &rt, c, on_done] GG_PIPELINE_STAGE {
          submit_reduce(rt, c, on_done);
          if (--pending_d2h_ == 0 && on_done) on_done(1);
        });

    if (config_.pipelined) {
      // Guard the slot's buffers: the next chunk on this slot may not start
      // its upload before this chunk's download retired.
      const cudalite::Event drained = rt.record_event(ks);
      rt.stream_wait_event(cs, drained);
    } else {
      // Synchronous baseline: drain after every chunk (the blocking-stack
      // schedule the pipeline's makespan is compared against).
      rt.synchronize(ks);
    }
  }
}

void KmeansPipeline::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  // Reduction point: merge the per-chunk partials in chunk order, then
  // refresh the device centroids (blocking H2D, same as the classic kmeans).
  if (rt.compute_enabled()) {
    const std::size_t dims = config_.dims;
    const std::size_t k = config_.clusters;
    std::vector<double> sums(k * dims, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t c = 0; c < config_.chunks; ++c) {
      for (std::size_t i = 0; i < k * dims; ++i) sums[i] += partial_sums_[c][i];
      for (std::size_t i = 0; i < k; ++i) counts[i] += partial_counts_[c][i];
    }
    for (std::size_t cl = 0; cl < k; ++cl) {
      if (counts[cl] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[cl * dims + d] = sums[cl * dims + d] / static_cast<double>(counts[cl]);
      }
    }
  }
  rt.memcpy_h2d(dev_centroids_, centroids_.data(), config_.clusters * config_.dims);
}

void KmeansPipeline::teardown(cudalite::Runtime& rt) {
  rt.memcpy_d2h(result_centroids_, dev_centroids_);
  for (auto& b : dev_points_) rt.free(b);
  for (auto& b : dev_assign_) rt.free(b);
  rt.free(dev_centroids_);
  dev_points_.clear();
  dev_assign_.clear();
  streams_.clear();
  ran_ = rt.compute_enabled();
}

bool KmeansPipeline::verify(common::JobPool& /*pool*/) const {
  if (!ran_) return false;
  // Scalar reference mirroring the chunked execution exactly: per-chunk
  // partial sums merged in chunk order (floating-point summation grouping
  // matters, so the reference groups identically).
  const std::size_t n = config_.points;
  const std::size_t dims = config_.dims;
  const std::size_t k = config_.clusters;
  std::vector<double> ref = initial_centroids_;
  std::vector<int> assign(n, 0);
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (std::size_t cl = 0; cl < k; ++cl) {
        const double d = dist2(&host_points_[i * dims], &ref[cl * dims], dims);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(cl);
        }
      }
      assign[i] = best_c;
    }
    std::vector<double> sums(k * dims, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t c = 0; c < config_.chunks; ++c) {
      std::vector<double> psums(k * dims, 0.0);
      std::vector<std::size_t> pcounts(k, 0);
      for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const auto cl = static_cast<std::size_t>(assign[i]);
        ++pcounts[cl];
        for (std::size_t d = 0; d < dims; ++d) psums[cl * dims + d] += host_points_[i * dims + d];
      }
      for (std::size_t i = 0; i < k * dims; ++i) sums[i] += psums[i];
      for (std::size_t i = 0; i < k; ++i) counts[i] += pcounts[i];
    }
    for (std::size_t cl = 0; cl < k; ++cl) {
      if (counts[cl] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        ref[cl * dims + d] = sums[cl * dims + d] / static_cast<double>(counts[cl]);
      }
    }
  }
  if (result_centroids_.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::fabs(result_centroids_[i] - ref[i]) > 1e-9) return false;
  }
  return true;
}

}  // namespace gg::workloads
