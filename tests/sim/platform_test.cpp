#include "src/sim/platform.h"

#include <gtest/gtest.h>

#include "src/sim/monitor.h"
#include "src/sim/trace.h"

#include <sstream>
#include <vector>

namespace gg::sim {
namespace {

using namespace gg::literals;

TEST(Platform, TestbedDefaults) {
  Platform p;
  EXPECT_EQ(p.gpu().core_level(), p.gpu().core_table().lowest_level());
  EXPECT_EQ(p.gpu().mem_level(), p.gpu().mem_table().lowest_level());
  EXPECT_EQ(p.cpu().level(), 0u);
  EXPECT_EQ(p.now(), 0_s);
}

TEST(Platform, SnapshotDeltaAttributesEnergy) {
  Platform p;
  const EnergySnapshot a = p.snapshot();
  p.queue().run_until(10_s);
  const EnergySnapshot b = p.snapshot();
  const EnergyDelta d = Platform::delta(a, b);
  EXPECT_DOUBLE_EQ(d.elapsed.get(), 10.0);
  EXPECT_GT(d.gpu.get(), 0.0);  // idle power accrues
  EXPECT_GT(d.cpu.get(), 0.0);
  EXPECT_DOUBLE_EQ(d.total().get(), d.gpu.get() + d.cpu.get());
}

TEST(Platform, MultiGpuSnapshotPerCardCoherent) {
  Platform p(3);
  EXPECT_EQ(p.gpu_count(), 3u);
  p.gpu(1).set_core_level(0);  // one card at peak clocks, two at the floor
  p.gpu(1).set_mem_level(0);
  p.queue().run_until(10_s);
  const EnergySnapshot s = p.snapshot();
  std::vector<Joules> per_gpu;
  Joules sum{0.0};
  for (std::size_t g = 0; g < p.gpu_count(); ++g) {
    per_gpu.push_back(p.gpu(g).energy());
    sum += per_gpu.back();
  }
  EXPECT_NEAR(s.gpu.get(), sum.get(), 1e-9);
  // The peak-clocked card idles hotter than the floored ones.
  EXPECT_GT(per_gpu[1].get(), per_gpu[0].get());
  EXPECT_NEAR(per_gpu[0].get(), per_gpu[2].get(), 1e-9);
}

TEST(Platform, ZeroGpusRejected) {
  EXPECT_THROW(Platform{0}, std::invalid_argument);
}

TEST(Platform, BusTransferTimeFormula) {
  Platform p;
  const Seconds t = p.bus().transfer_time(3.0e9);
  EXPECT_NEAR(t.get(), 1.0 + 15e-6, 1e-9);
}

TEST(GpuUtilSampler, WindowedAverages) {
  Platform p;
  p.gpu().set_core_level(0);
  p.gpu().set_mem_level(0);
  GpuUtilSampler sampler(p.gpu(), p.queue());
  // Kernel busy for 1 s at (0.6, 0.2), window of 2 s -> halves.
  KernelWork w;
  w.units = 1.0;
  const GpuSpec& s = p.gpu().spec();
  w.core_cycles_per_unit = 0.6 * 1.0 * s.core_throughput(576_MHz);
  w.mem_bytes_per_unit = 0.2 * 1.0 * s.mem_bandwidth(900_MHz);
  w.overhead_per_unit = 1_s;
  p.gpu().submit(w, {});
  p.queue().run_until(2_s);
  const GpuUtilization u = sampler.sample();
  EXPECT_NEAR(u.core, 0.3, 1e-9);
  EXPECT_NEAR(u.memory, 0.1, 1e-9);
  // Second window: idle.
  p.queue().run_until(3_s);
  const GpuUtilization u2 = sampler.sample();
  EXPECT_NEAR(u2.core, 0.0, 1e-12);
}

TEST(GpuUtilSampler, EmptyWindowReturnsZero) {
  Platform p;
  GpuUtilSampler sampler(p.gpu(), p.queue());
  const GpuUtilization u = sampler.sample();  // zero elapsed time
  EXPECT_EQ(u.core, 0.0);
  EXPECT_EQ(u.memory, 0.0);
}

TEST(CpuUtilSampler, WindowedAverage) {
  Platform p;
  CpuUtilSampler sampler(p.cpu(), p.queue());
  CpuWork w;
  w.units = 1.0;
  w.ops_per_unit = p.cpu().spec().throughput(2800_MHz) * 1.0;
  p.cpu().submit(w, {});
  p.queue().run_until(4_s);
  EXPECT_NEAR(sampler.sample(), 0.25, 1e-9);
}

TEST(TraceRecorder, SamplesAtPeriod) {
  Platform p;
  TraceRecorder trace(p, 1_s);
  p.queue().run_until(5.5_s);
  trace.stop();
  ASSERT_EQ(trace.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(trace.samples()[0].time.get(), 1.0);
  EXPECT_DOUBLE_EQ(trace.samples()[4].time.get(), 5.0);
}

TEST(TraceRecorder, RecordsFrequenciesAndPower) {
  Platform p;
  p.gpu().set_core_level(0);
  p.gpu().set_mem_level(0);
  TraceRecorder trace(p, 1_s);
  p.queue().run_until(2_s);
  trace.stop();
  ASSERT_GE(trace.samples().size(), 1u);
  const TraceSample& s = trace.samples()[0];
  EXPECT_DOUBLE_EQ(s.gpu_core_freq.get(), 576.0);
  EXPECT_DOUBLE_EQ(s.gpu_mem_freq.get(), 900.0);
  EXPECT_DOUBLE_EQ(s.cpu_freq.get(), 2800.0);
  EXPECT_NEAR(s.gpu_power.get(), p.gpu().idle_power(0, 0).get(), 1e-9);
}

TEST(TraceRecorder, StopPreventsFurtherSamples) {
  Platform p;
  TraceRecorder trace(p, 1_s);
  p.queue().run_until(2.5_s);
  trace.stop();
  p.queue().run_until(10_s);
  EXPECT_EQ(trace.samples().size(), 2u);
}

TEST(TraceRecorder, CsvOutputHasHeaderAndRows) {
  Platform p;
  TraceRecorder trace(p, 1_s);
  p.queue().run_until(3_s);
  trace.stop();
  std::ostringstream oss;
  write_trace_csv(oss, trace.samples());
  std::istringstream iss(oss.str());
  std::string line;
  std::getline(iss, line);
  EXPECT_NE(line.find("gpu_core_mhz"), std::string::npos);
  int rows = 0;
  while (std::getline(iss, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

}  // namespace
}  // namespace gg::sim
