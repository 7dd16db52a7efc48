// Windowed utilization sampling, nvidia-smi / /proc/stat style.
//
// Both GreenGPU tiers consume utilizations averaged over the interval since
// the previous sample, exactly how `nvidia-smi` and the ondemand governor
// observe the hardware.  Samplers difference the devices' cumulative activity
// counters.
#pragma once

#include "src/sim/cpu_device.h"
#include "src/sim/gpu_device.h"

namespace gg::sim {

/// GPU core + memory utilizations over one sampling window.
struct GpuUtilization {
  double core{0.0};
  double memory{0.0};
};

class GpuUtilSampler {
 public:
  explicit GpuUtilSampler(GpuDevice& gpu, EventQueue& queue)
      : gpu_(&gpu), queue_(&queue), last_(gpu.counters()), last_time_(queue.now()) {}

  /// Average utilizations since the previous call (or construction).
  /// Returns zeros for an empty window.
  GpuUtilization sample() {
    const GpuActivityCounters now = gpu_->counters();
    const Seconds t = queue_->now();
    const double dt = (t - last_time_).get();
    GpuUtilization u;
    if (dt > 0.0) {
      u.core = (now.core_util_integral - last_.core_util_integral) / dt;
      u.memory = (now.mem_util_integral - last_.mem_util_integral) / dt;
    }
    last_ = now;
    last_time_ = t;
    return u;
  }

  /// Serialize the windowed-differencing state so a restored sampler
  /// averages over the exact window the saved one would have used.
  void save(common::SnapshotWriter& w) const {
    w.f64(last_.core_util_integral);
    w.f64(last_.mem_util_integral);
    w.f64(last_.busy_integral);
    w.f64(last_time_.get());
  }
  void load(common::SnapshotReader& r) {
    last_.core_util_integral = r.f64();
    last_.mem_util_integral = r.f64();
    last_.busy_integral = r.f64();
    last_time_ = Seconds{r.f64()};
  }

 private:
  GpuDevice* gpu_;
  EventQueue* queue_;
  GpuActivityCounters last_;
  Seconds last_time_;
};

class CpuUtilSampler {
 public:
  explicit CpuUtilSampler(CpuDevice& cpu, EventQueue& queue)
      : cpu_(&cpu), queue_(&queue), last_(cpu.counters()), last_time_(queue.now()) {}

  /// Average package utilization in [0, 1] since the previous call.
  double sample() {
    const CpuActivityCounters now = cpu_->counters();
    const Seconds t = queue_->now();
    const double dt = (t - last_time_).get();
    double u = 0.0;
    if (dt > 0.0) u = (now.util_integral - last_.util_integral) / dt;
    last_ = now;
    last_time_ = t;
    return u;
  }

  /// Serialize the windowed-differencing state (see GpuUtilSampler::save).
  void save(common::SnapshotWriter& w) const {
    w.f64(last_.util_integral);
    w.f64(last_.busy_integral);
    w.f64(last_.spin_integral);
    w.f64(last_time_.get());
  }
  void load(common::SnapshotReader& r) {
    last_.util_integral = r.f64();
    last_.busy_integral = r.f64();
    last_.spin_integral = r.f64();
    last_time_ = Seconds{r.f64()};
  }

 private:
  CpuDevice* cpu_;
  EventQueue* queue_;
  CpuActivityCounters last_;
  Seconds last_time_;
};

}  // namespace gg::sim
