// Tests for the deterministic fault-injection layer (sim/fault.h).

#include "src/sim/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/platform.h"

namespace gg::sim {
namespace {

TEST(FaultConfig, DefaultIsNoFaults) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.any_faults());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FaultConfig, ValidateNamesTheBadField) {
  FaultConfig cfg;
  cfg.util_drop_rate = 1.5;
  try {
    cfg.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("util_drop_rate"), std::string::npos);
  }
  cfg = FaultConfig{};
  cfg.launch_fail_rate = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// greengpu_cli and greengpud share from_flags, so both name the flag.
TEST(FaultConfig, FromFlagsNamesTheBadFlag) {
  const auto error = [](const std::vector<std::string>& tokens) {
    try {
      (void)FaultConfig::from_flags(Flags(tokens));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error({"--fault-rate", "2"}), "--fault-rate must be in [0, 1]");
  EXPECT_EQ(error({"--fault-host", "nan"}), "--fault-host must be in [0, 1]");
  EXPECT_EQ(error({"--fault-clock-delay-s", "-1"}), "--fault-clock-delay-s must be >= 0");
  EXPECT_EQ(error({"--fault-throttle-mtbf", "5", "--fault-throttle-duration", "0"}),
            "FaultConfig: throttle_duration must be > 0 when throttling is enabled");
}

TEST(FaultConfig, PartitionedChannelSumsMustStayBelowOne) {
  FaultConfig cfg;
  cfg.util_drop_rate = 0.5;
  cfg.util_stale_rate = 0.4;
  cfg.util_corrupt_rate = 0.3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FaultConfig{};
  cfg.clock_reject_rate = 0.6;
  cfg.clock_delay_rate = 0.6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FaultConfig, DelayAndThrottleNeedPositiveDurations) {
  FaultConfig cfg;
  cfg.clock_delay_rate = 0.2;
  cfg.clock_delay = Seconds{0.0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FaultConfig{};
  cfg.throttle_mtbf = Seconds{10.0};
  cfg.throttle_duration = Seconds{0.0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FaultConfig, UniformSplitsPartitionedChannels) {
  const FaultConfig cfg = FaultConfig::uniform(0.3, 42);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_TRUE(cfg.any_faults());
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.util_drop_rate + cfg.util_stale_rate + cfg.util_corrupt_rate, 0.3);
  EXPECT_DOUBLE_EQ(cfg.clock_reject_rate + cfg.clock_delay_rate + cfg.clock_clamp_rate,
                   0.3);
  EXPECT_DOUBLE_EQ(cfg.launch_fail_rate, 0.3);
  EXPECT_DOUBLE_EQ(cfg.host_fail_rate, 0.3);
  EXPECT_THROW((void)FaultConfig::uniform(1.5), std::invalid_argument);
}

TEST(FaultInjector, ZeroRatesNeverFault) {
  Platform platform;
  FaultInjector inj(platform.queue(), FaultConfig{});
  inj.add_gpu(platform.gpu(), 0);
  inj.start();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(inj.draw_util_fault(0), UtilFault::kNone);
    EXPECT_EQ(inj.draw_clock_fault(0), ClockFault::kNone);
    EXPECT_FALSE(inj.draw_launch_fail(0));
    EXPECT_FALSE(inj.draw_host_fail());
  }
  EXPECT_FALSE(inj.throttled(0));
  EXPECT_TRUE(inj.events().empty());
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultConfig cfg = FaultConfig::uniform(0.35, 1234);
  Platform p1;
  Platform p2;
  FaultInjector a(p1.queue(), cfg);
  FaultInjector b(p2.queue(), cfg);
  a.add_gpu(p1.gpu(), 0);
  b.add_gpu(p2.gpu(), 0);
  a.start();
  b.start();
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.draw_util_fault(0), b.draw_util_fault(0));
    EXPECT_EQ(a.draw_clock_fault(0), b.draw_clock_fault(0));
    EXPECT_EQ(a.draw_launch_fail(0), b.draw_launch_fail(0));
    EXPECT_EQ(a.draw_host_fail(), b.draw_host_fail());
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  Platform p1;
  Platform p2;
  FaultInjector a(p1.queue(), FaultConfig::uniform(0.5, 1));
  FaultInjector b(p2.queue(), FaultConfig::uniform(0.5, 2));
  a.add_gpu(p1.gpu(), 0);
  b.add_gpu(p2.gpu(), 0);
  int differ = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.draw_launch_fail(0) != b.draw_launch_fail(0)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, GpusMustRegisterInOrderBeforeStart) {
  Platform platform(2);
  FaultInjector inj(platform.queue(), FaultConfig{});
  EXPECT_THROW(inj.add_gpu(platform.gpu(1), 1), std::invalid_argument);
  inj.add_gpu(platform.gpu(0), 0);
  inj.start();
  EXPECT_THROW(inj.add_gpu(platform.gpu(1), 1), std::logic_error);
}

TEST(FaultInjector, CorruptUtilizationStaysInPercentRange) {
  Platform platform;
  FaultInjector inj(platform.queue(), FaultConfig::uniform(0.5));
  inj.add_gpu(platform.gpu(), 0);
  for (int i = 0; i < 100; ++i) {
    const auto [core, mem] = inj.corrupt_utilization(0);
    EXPECT_LE(core, 100u);
    EXPECT_LE(mem, 100u);
  }
}

TEST(FaultInjector, ThrottleEpisodePinsLowestThenRestoresRequested) {
  Platform platform;
  FaultConfig cfg;
  cfg.throttle_mtbf = Seconds{5.0};
  cfg.throttle_duration = Seconds{2.0};
  FaultInjector& inj = platform.install_faults(cfg);

  GpuDevice& gpu = platform.gpu();
  gpu.set_core_level(0);
  gpu.set_mem_level(0);
  inj.note_requested_levels(0, 0, 0);

  // Walk simulated time until the first episode begins.
  Seconds t{0.0};
  while (!inj.throttled(0) && t < Seconds{200.0}) {
    t = t + Seconds{0.5};
    platform.queue().run_until(t);
  }
  ASSERT_TRUE(inj.throttled(0)) << "no episode within 200 s at mtbf 5 s";
  EXPECT_EQ(gpu.core_level(), gpu.core_table().lowest_level());
  EXPECT_EQ(gpu.mem_level(), gpu.mem_table().lowest_level());

  // Mid-episode request: the episode end must restore this, not the
  // pre-episode levels.
  inj.note_requested_levels(0, 1, 1);
  while (inj.throttled(0)) {
    t = t + Seconds{0.5};
    platform.queue().run_until(t);
  }
  EXPECT_EQ(gpu.core_level(), 1u);
  EXPECT_EQ(gpu.mem_level(), 1u);

  bool saw_start = false;
  bool saw_end = false;
  for (const FaultEvent& e : inj.events()) {
    if (e.outcome == FaultOutcome::kThrottleStart) saw_start = true;
    if (e.outcome == FaultOutcome::kThrottleEnd) {
      EXPECT_TRUE(saw_start);
      saw_end = true;
    }
    EXPECT_EQ(e.channel, FaultChannel::kThermal);
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
}

TEST(FaultInjector, StopEndsActiveEpisode) {
  Platform platform;
  FaultConfig cfg;
  cfg.throttle_mtbf = Seconds{1.0};
  cfg.throttle_duration = Seconds{1000.0};
  FaultInjector& inj = platform.install_faults(cfg);
  Seconds t{0.0};
  while (!inj.throttled(0) && t < Seconds{100.0}) {
    t = t + Seconds{0.5};
    platform.queue().run_until(t);
  }
  ASSERT_TRUE(inj.throttled(0));
  inj.stop();
  EXPECT_FALSE(inj.throttled(0));
}

TEST(FaultInjector, EventLogTimestampsAreMonotonic) {
  Platform platform;
  FaultConfig cfg;
  cfg.throttle_mtbf = Seconds{2.0};
  cfg.throttle_duration = Seconds{1.0};
  platform.install_faults(cfg);
  platform.queue().run_until(Seconds{60.0});
  const auto& events = platform.faults()->events();
  ASSERT_GT(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time.get(), events[i - 1].time.get());
  }
}

TEST(FaultStrings, AllEnumeratorsHaveNames) {
  EXPECT_EQ(to_string(FaultChannel::kThermal), "thermal");
  EXPECT_EQ(to_string(FaultChannel::kHarness), "harness");
  EXPECT_EQ(to_string(FaultOutcome::kRerouted), "rerouted");
  EXPECT_EQ(to_string(FaultOutcome::kWatchdogTrip), "watchdog-trip");
}

}  // namespace
}  // namespace gg::sim
