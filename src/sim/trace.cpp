#include "src/sim/trace.h"

#include "src/common/csv.h"

namespace gg::sim {

TraceRecorder::TraceRecorder(Platform& platform, Seconds period)
    : platform_(&platform),
      period_(period),
      gpu_sampler_(platform.gpu(), platform.queue()),
      cpu_sampler_(platform.cpu(), platform.queue()),
      last_energy_(platform.snapshot()) {
  arm();
}

void TraceRecorder::arm() {
  next_ = platform_->queue().schedule_in(period_, [this] { take_sample(); });
}

void TraceRecorder::stop() {
  stopped_ = true;
  next_.cancel();
}

void TraceRecorder::take_sample() {
  if (stopped_) return;
  const GpuUtilization gu = gpu_sampler_.sample();
  const double cu = cpu_sampler_.sample();
  const EnergySnapshot e = platform_->snapshot();
  const EnergyDelta d = Platform::delta(last_energy_, e);
  last_energy_ = e;

  TraceSample s;
  s.time = platform_->now();
  s.gpu_core_freq = platform_->gpu().core_frequency();
  s.gpu_mem_freq = platform_->gpu().mem_frequency();
  s.cpu_freq = platform_->cpu().frequency();
  s.gpu_core_util = gu.core;
  s.gpu_mem_util = gu.memory;
  s.cpu_util = cu;
  if (d.elapsed > Seconds{0.0}) {
    s.gpu_power = d.gpu / d.elapsed;
    s.cpu_power = d.cpu / d.elapsed;
  }
  samples_.push_back(s);
  arm();
}

void write_trace_csv(std::ostream& os, const std::vector<TraceSample>& samples) {
  CsvWriter w(os);
  w.row_values("time_s", "gpu_core_mhz", "gpu_mem_mhz", "cpu_mhz", "gpu_core_util",
               "gpu_mem_util", "cpu_util", "gpu_power_w", "cpu_power_w");
  for (const auto& s : samples) {
    w.row_values(s.time.get(), s.gpu_core_freq.get(), s.gpu_mem_freq.get(),
                 s.cpu_freq.get(), s.gpu_core_util, s.gpu_mem_util, s.cpu_util,
                 s.gpu_power.get(), s.cpu_power.get());
  }
}

}  // namespace gg::sim
