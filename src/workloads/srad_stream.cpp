#include "src/workloads/srad_stream.h"

#include <cmath>
#include <stdexcept>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/sim/fault.h"

namespace gg::workloads {

SradStream::SradStream(SradStreamConfig config) : config_(config) {
  if (config_.rows < 2 || config_.cols < 2) {
    throw std::invalid_argument("SradStream: frame must be at least 2x2");
  }
  if (config_.frames_per_iteration == 0) {
    throw std::invalid_argument("SradStream: frames_per_iteration must be >= 1");
  }
  if (config_.stream_depth == 0) {
    throw std::invalid_argument("SradStream: stream_depth must be >= 1");
  }
}

IntensityProfile SradStream::profile(std::size_t /*iter*/) const {
  IntensityProfile p = config_.profile;
  p.units_per_iteration = static_cast<double>(config_.frames_per_iteration);
  return p;
}

void SradStream::generate_frame(std::size_t global_frame, double* out) const {
  // One independent generator per frame so any frame is reproducible without
  // the ones before it (the O(chunk)-memory property of the stream).
  Rng rng(config_.seed + 0x9E3779B97F4A7C15ULL * (global_frame + 1));
  for (std::size_t i = 0; i < frame_elems(); ++i) out[i] = rng.uniform(0.0, 255.0);
}

void SradStream::diffuse_rows(const double* in, double* out, std::size_t row_begin,
                              std::size_t row_end) const {
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double x = in[r * cols + c];
      const double n = in[(r == 0 ? r : r - 1) * cols + c];
      const double s = in[(r == rows - 1 ? r : r + 1) * cols + c];
      const double w = in[r * cols + (c == 0 ? c : c - 1)];
      const double e = in[r * cols + (c == cols - 1 ? c : c + 1)];
      out[r * cols + c] = x + config_.lambda * (n + s + w + e - 4.0 * x);
    }
  }
}

void SradStream::setup(cudalite::Runtime& rt) {
  const std::size_t slots = config_.pipelined ? config_.stream_depth : 1;
  dev_in_.clear();
  dev_out_.clear();
  for (std::size_t s = 0; s < slots; ++s) {
    dev_in_.push_back(rt.alloc<double>(frame_elems()));
    dev_out_.push_back(rt.alloc<double>(frame_elems()));
  }
  if (rt.compute_enabled()) {
    scratch_frame_.assign(frame_elems(), 0.0);
    host_out_.assign(config_.frames_per_iteration * frame_elems(), 0.0);
    frame_checksums_.assign(config_.frames_per_iteration, 0.0);
  }
  streams_.clear();
  const std::size_t n_streams = config_.pipelined ? config_.stream_depth : 1;
  for (std::size_t s = 0; s < n_streams; ++s) streams_.push_back(rt.create_stream());
  checksum_ = 0.0;
  ran_ = false;
}

void SradStream::run_iteration(cudalite::Runtime& rt, std::vector<cudalite::Stream>& streams,
                               std::size_t iter, const ShareVector& /*shares*/,
                               std::function<void(std::size_t)> on_done) {
  if (iter >= config_.iterations) throw std::out_of_range("SradStream: iteration index");
  for (std::size_t slot = 2; slot <= streams.size(); ++slot) {
    if (on_done) on_done(slot);
  }
  auto& platform = rt.platform();
  const cudalite::WorkEstimate est =
      make_gpu_estimate(platform.gpu().spec(), platform.gpu().core_table().peak(),
                        platform.gpu().mem_table().peak(), profile(iter), 1.0);
  IntensityProfile cp = config_.profile;
  cp.unit_time_s = config_.checksum_seconds;
  cp.cpu_slowdown = 1.0;
  const sim::CpuWork checksum_work =
      make_cpu_work(platform.cpu().spec(), platform.cpu().table().peak(), cp, 1.0);

  const std::size_t fpi = config_.frames_per_iteration;
  pending_d2h_ = fpi;
  pending_checksums_ = fpi;

  for (std::size_t f = 0; f < fpi; ++f) {
    const std::size_t slot = config_.pipelined ? f % config_.stream_depth : 0;
    cudalite::Stream& s = streams_[slot];
    const std::size_t global_frame = iter * fpi + f;

    // Stage 1: synthesize the next frame and upload it.  The real copy is
    // eager (host program order), so the single scratch buffer is safe to
    // reuse even though the simulated transfers overlap.
    const bool real = rt.compute_enabled();
    if (real) generate_frame(global_frame, scratch_frame_.data());
    rt.memcpy_h2d_async(s, dev_in_[slot], scratch_frame_.data(), frame_elems(),
                        config_.sim_h2d_bytes);

    // Stage 2: diffusion step, row-parallel.  In-order stream: the kernel
    // cannot start before the slot's upload landed.
    if (!rt.launch_range(
            s, config_.rows, est,
            [this, slot](std::size_t b, std::size_t e) {
              diffuse_rows(dev_in_[slot].data(), dev_out_[slot].data(), b, e);
            })) {
      // Rejected launch: force-complete inline so the downstream D2H still
      // moves correct data (degradation recorded; kernel charge lost).
      sim::FaultInjector* faults = platform.faults();
      if (faults != nullptr) {
        faults->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kForcedCompletion,
                     s.device());
      }
      if (rt.compute_enabled()) diffuse_rows(dev_in_[slot].data(), dev_out_[slot].data(),
                                             0, config_.rows);
    }

    // Stage 3: download into the frame's own host region (per frame, never
    // per slot — a later frame's eager copy must not clobber what this
    // frame's checksum stage reads at simulated completion).
    double* frame_out = real ? host_out_.data() + f * frame_elems() : nullptr;
    rt.memcpy_d2h_async(
        s, frame_out, dev_out_[slot], frame_elems(), config_.sim_d2h_bytes,
        [this, &rt, f, frame_out, checksum_work, on_done]
        GG_PIPELINE_STAGE {
          auto signal = [this, on_done] {
            if (--pending_checksums_ == 0 && on_done) on_done(0);
          };
          const bool ok = rt.host_submit(
              checksum_work,
              [this, f, frame_out] {
                double sum = 0.0;
                for (std::size_t i = 0; i < frame_elems(); ++i) sum += frame_out[i];
                frame_checksums_[f] = sum;
              },
              signal);
          if (!ok) {
            sim::FaultInjector* faults = rt.platform().faults();
            if (faults != nullptr) {
              faults->note(sim::FaultChannel::kHarness,
                           sim::FaultOutcome::kForcedCompletion);
            }
            if (rt.compute_enabled()) {
              double sum = 0.0;
              for (std::size_t i = 0; i < frame_elems(); ++i) sum += frame_out[i];
              frame_checksums_[f] = sum;
            }
            signal();
          }
          if (--pending_d2h_ == 0 && on_done) on_done(1);
        });

    if (!config_.pipelined) rt.synchronize(s);
  }
}

void SradStream::finish_iteration(cudalite::Runtime& rt, std::size_t /*iter*/) {
  // Fold the per-frame checksums in frame order: completion order of the
  // D2H callbacks depends on the schedule, the folded total must not.
  if (rt.compute_enabled()) {
    for (std::size_t f = 0; f < config_.frames_per_iteration; ++f) {
      checksum_ += frame_checksums_[f];
    }
  }
}

void SradStream::teardown(cudalite::Runtime& rt) {
  for (auto& b : dev_in_) rt.free(b);
  for (auto& b : dev_out_) rt.free(b);
  dev_in_.clear();
  dev_out_.clear();
  streams_.clear();
  ran_ = rt.compute_enabled();
}

bool SradStream::verify(common::JobPool& /*pool*/) const {
  if (!ran_) return false;
  // Serial reference over the whole stream, identical math and identical
  // summation order (per-frame element order, frames folded in order).
  std::vector<double> in(frame_elems());
  std::vector<double> out(frame_elems());
  double ref = 0.0;
  const std::size_t total = config_.iterations * config_.frames_per_iteration;
  for (std::size_t g = 0; g < total; ++g) {
    generate_frame(g, in.data());
    diffuse_rows(in.data(), out.data(), 0, config_.rows);
    double sum = 0.0;
    for (std::size_t i = 0; i < frame_elems(); ++i) sum += out[i];
    ref += sum;
  }
  const double tol = 1e-9 * std::max(1.0, std::fabs(ref));
  return std::fabs(checksum_ - ref) <= tol;
}

}  // namespace gg::workloads
