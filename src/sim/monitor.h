// Windowed utilization sampling, nvidia-smi / /proc/stat style.
//
// Both GreenGPU tiers consume utilizations averaged over the interval since
// the previous sample, exactly how `nvidia-smi` and the ondemand governor
// observe the hardware.  Samplers difference the devices' cumulative activity
// counters.
#pragma once

#include <cstdint>

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
    const double u = average(last_, last_time_, now, t);
    last_ = now;
    last_time_ = t;
    return u;
  }

  /// Take the samples sample() would take at now + period, now + 2 period,
  /// ... while the queue would fire each inline (EventQueue::inline_window:
  /// nothing else is due by then, so the CPU's state holds still, see
  /// CpuDevice::account_held), as long as `keep(t, u)` accepts each
  /// windowed utilization.  The first refusal ends the run with that sample
  /// untaken.  Returns the number taken; the caller fires them on the queue
  /// (EventQueue::fire_inline) before anything else runs.
  template <typename Keep>
  std::uint64_t sample_held(Seconds period, Keep keep) {
    const EventQueue::InlineWindow window = queue_->inline_window();
    CpuActivityCounters last = last_;
    Seconds last_time = last_time_;
    const std::uint64_t count =
        cpu_->account_held(period, [&](Seconds t, const CpuActivityCounters& now) {
          if (!window.admits(t)) return false;
          if (!keep(t, average(last, last_time, now, t))) return false;
          last = now;
          last_time = t;
          return true;
        });
    last_ = last;
    last_time_ = last_time;
    return count;
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
  /// Package utilization averaged over [since_time, t]; 0 for an empty
  /// window.
  static double average(const CpuActivityCounters& since, Seconds since_time,
                        const CpuActivityCounters& now, Seconds t) {
    const double dt = (t - since_time).get();
    return dt > 0.0 ? (now.util_integral - since.util_integral) / dt : 0.0;
  }

  CpuDevice* cpu_;
  EventQueue* queue_;
  CpuActivityCounters last_;
  Seconds last_time_;
};

}  // namespace gg::sim
