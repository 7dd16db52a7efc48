// Periodic platform trace recorder (frequencies, utilizations, power).
//
// Used to regenerate the paper's time-series figures (Fig. 5 traces) and for
// debugging controller behaviour.  Attach to a platform and it samples at a
// fixed period via the event queue until detached or the queue drains.
#pragma once

#include <ostream>
#include <vector>

#include "src/sim/monitor.h"
#include "src/sim/platform.h"

namespace gg::sim {

struct TraceSample {
  Seconds time{0.0};
  Megahertz gpu_core_freq{0.0};
  Megahertz gpu_mem_freq{0.0};
  Megahertz cpu_freq{0.0};
  double gpu_core_util{0.0};  // averaged over the sample window
  double gpu_mem_util{0.0};
  double cpu_util{0.0};
  Watts gpu_power{0.0};  // window-average (from meter energy delta)
  Watts cpu_power{0.0};
};

class TraceRecorder {
 public:
  /// Starts sampling immediately; the first sample lands at now + period.
  TraceRecorder(Platform& platform, Seconds period);
  ~TraceRecorder() { stop(); }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Stop scheduling further samples.
  void stop();

  [[nodiscard]] const std::vector<TraceSample>& samples() const { return samples_; }

 private:
  void take_sample();
  void arm();

  Platform* platform_;
  Seconds period_;
  GpuUtilSampler gpu_sampler_;
  CpuUtilSampler cpu_sampler_;
  EnergySnapshot last_energy_;
  EventHandle next_;
  bool stopped_{false};
  std::vector<TraceSample> samples_;
};

/// Write `samples` as CSV with a header row.
void write_trace_csv(std::ostream& os, const std::vector<TraceSample>& samples);

}  // namespace gg::sim
