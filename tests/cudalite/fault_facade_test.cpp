// How the cudalite facades surface injected faults: NvmlDevice's fallible
// query, NvSettings' checked clock writes, and the Runtime's launch / host
// admission.  Rates of 1.0 force each outcome deterministically.

#include <gtest/gtest.h>

#include "src/cudalite/api.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/sim/fault.h"
#include "src/sim/platform.h"

namespace gg::cudalite {
namespace {

sim::FaultConfig one_channel(double sim::FaultConfig::* field) {
  sim::FaultConfig cfg;
  cfg.*field = 1.0;
  return cfg;
}

TEST(NvmlFacade, NoInjectorMatchesPerfectPath) {
  sim::Platform platform;
  ASSERT_EQ(platform.faults(), nullptr);
  NvmlDevice nvml(platform);
  platform.queue().run_until(Seconds{2.0});
  const UtilizationSample s = nvml.utilization_rates();
  EXPECT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.window.get(), 2.0);
  EXPECT_EQ(s.rates.gpu, 0u);  // idle GPU
}

TEST(NvmlFacade, DropReturnsDriverErrorAndKeepsWindow) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::util_drop_rate));
  NvmlDevice nvml(platform);
  platform.queue().run_until(Seconds{1.0});
  const UtilizationSample s = nvml.utilization_rates();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status, NvmlStatus::kDriverError);
  EXPECT_DOUBLE_EQ(s.window.get(), 0.0);
  const auto& events = platform.faults()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].outcome, sim::FaultOutcome::kUtilDropped);
  EXPECT_EQ(events[0].channel, sim::FaultChannel::kUtilRead);
}

TEST(NvmlFacade, StaleRepeatsPreviousSampleWithZeroWindow) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::util_stale_rate));
  NvmlDevice nvml(platform);
  const UtilizationSample s = nvml.utilization_rates();
  EXPECT_TRUE(s.ok());  // the driver "succeeds" -- only the window betrays it
  EXPECT_DOUBLE_EQ(s.window.get(), 0.0);
}

TEST(NvmlFacade, CorruptAdvancesWindowButReturnsGarbage) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::util_corrupt_rate));
  NvmlDevice nvml(platform);
  platform.queue().run_until(Seconds{3.0});
  const UtilizationSample s = nvml.utilization_rates();
  EXPECT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.window.get(), 3.0);  // counters were consumed
  EXPECT_LE(s.rates.gpu, 100u);
  EXPECT_LE(s.rates.memory, 100u);
}

TEST(NvSettingsFacade, NoInjectorAlwaysApplies) {
  sim::Platform platform;
  NvSettings settings(platform);
  const ClockWriteResult r = settings.set_clock_levels(0, 0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(settings.clock_levels(), (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(NvSettingsFacade, RejectLeavesClocksUnchanged) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::clock_reject_rate));
  NvSettings settings(platform);
  const auto before = settings.clock_levels();
  const ClockWriteResult r = settings.set_clock_levels(0, 0);
  EXPECT_EQ(r.status, ClockWriteStatus::kRejected);
  EXPECT_EQ(settings.clock_levels(), before);
}

TEST(NvSettingsFacade, DelayLandsAfterTheLatencyWindow) {
  sim::Platform platform;
  sim::FaultConfig cfg;
  cfg.clock_delay_rate = 1.0;
  cfg.clock_delay = Seconds{0.5};
  platform.install_faults(cfg);
  NvSettings settings(platform);
  const auto before = settings.clock_levels();
  ASSERT_NE(before.first, 0u);  // platform default is the lowest levels
  const ClockWriteResult r = settings.set_clock_levels(0, 0);
  EXPECT_EQ(r.status, ClockWriteStatus::kDelayed);
  EXPECT_EQ(settings.clock_levels(), before);  // not yet
  platform.queue().run_until(Seconds{1.0});
  EXPECT_EQ(settings.clock_levels(), (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(NvSettingsFacade, ClampMovesOneLevelPerWrite) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::clock_clamp_rate));
  NvSettings settings(platform);
  const auto [core0, mem0] = settings.clock_levels();
  ASSERT_GT(core0, 1u);  // several levels away from the peak
  ClockWriteResult r = settings.set_clock_levels(0, 0);
  EXPECT_EQ(r.status, ClockWriteStatus::kClamped);
  EXPECT_EQ(r.core_level, core0 - 1);
  // Re-issuing the write walks one level at a time until it lands.
  int writes = 1;
  while (!r.ok() && writes < 32) {
    r = settings.set_clock_levels(0, 0);
    ++writes;
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(settings.clock_levels(), (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(RuntimeFaults, LaunchFailureRejectsWithoutRetries) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::launch_fail_rate));
  Runtime rt(platform, 2);
  auto stream = rt.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1e-3;
  bool body_ran = false;
  bool completed = false;
  const bool accepted = rt.launch_range(
      stream, 8, est, [&](std::size_t, std::size_t) { body_ran = true; },
      [&] { completed = true; });
  EXPECT_FALSE(accepted);
  EXPECT_FALSE(body_ran);
  EXPECT_FALSE(completed);
  EXPECT_EQ(rt.stats().launches_rejected, 1u);
  EXPECT_EQ(rt.stats().kernels_launched, 0u);
  const auto& events = platform.faults()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].channel, sim::FaultChannel::kLaunch);
  EXPECT_EQ(events[0].outcome, sim::FaultOutcome::kLaunchFailed);
}

TEST(RuntimeFaults, RetriesAreBoundedAndCounted) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::launch_fail_rate));
  Runtime rt(platform, 2);
  rt.set_hardened(true);
  auto stream = rt.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1e-3;
  const bool accepted =
      rt.launch_range(stream, 8, est, [](std::size_t, std::size_t) {});
  EXPECT_FALSE(accepted);  // rate 1.0 defeats every retry
  EXPECT_EQ(rt.stats().launch_retries, static_cast<std::uint64_t>(kMaxLaunchRetries));
  EXPECT_EQ(rt.stats().launches_rejected, 1u);
}

TEST(RuntimeFaults, RetriesRecoverTransientFailures) {
  // At 20 % failure, the hardened runtime's three retries get a launch
  // through all but 0.2^4 = 0.16 % of the time; run several launches and
  // require at least one retry and zero rejects.
  sim::Platform platform;
  sim::FaultConfig cfg;
  cfg.launch_fail_rate = 0.2;
  platform.install_faults(cfg);
  Runtime rt(platform, 2);
  rt.set_hardened(true);
  auto stream = rt.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1e-4;
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (rt.launch_range(stream, 4, est, [](std::size_t, std::size_t) {})) ++accepted;
    rt.synchronize(stream);
  }
  EXPECT_EQ(accepted, 20);
  EXPECT_GT(rt.stats().launch_retries, 0u);
  EXPECT_EQ(rt.stats().launches_rejected, 0u);
}

TEST(RuntimeFaults, HostSubmitFailureSkipsTheTask) {
  sim::Platform platform;
  platform.install_faults(one_channel(&sim::FaultConfig::host_fail_rate));
  Runtime rt(platform, 2);
  bool ran = false;
  bool completed = false;
  sim::CpuWork work;
  work.units = 1.0;
  work.overhead_per_unit = Seconds{1.0};
  const bool accepted = rt.host_submit(work, [&] { ran = true; }, [&] { completed = true; });
  EXPECT_FALSE(accepted);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(completed);
  EXPECT_EQ(rt.stats().host_tasks_rejected, 1u);
  EXPECT_EQ(rt.stats().launches_rejected, 0u);
  const auto& events = platform.faults()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].channel, sim::FaultChannel::kHostTask);
  EXPECT_EQ(events[0].outcome, sim::FaultOutcome::kHostTaskFailed);
  EXPECT_EQ(events[0].device, 0u);
}

TEST(RuntimeFaults, ZeroRateInjectorChangesNothing) {
  // An installed injector with all rates zero must be invisible.
  sim::Platform platform;
  platform.install_faults(sim::FaultConfig{});
  Runtime rt(platform, 2);
  auto stream = rt.create_stream();
  WorkEstimate est;
  est.units = 1.0;
  est.overhead_per_unit_s = 1e-3;
  EXPECT_TRUE(rt.launch_range(stream, 8, est, [](std::size_t, std::size_t) {}));
  rt.synchronize(stream);
  EXPECT_EQ(rt.stats().launch_retries, 0u);
  EXPECT_EQ(rt.stats().launches_rejected, 0u);
  EXPECT_TRUE(platform.faults()->events().empty());
}

}  // namespace
}  // namespace gg::cudalite
