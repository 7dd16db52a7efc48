#include "src/service/breaker.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <utility>

namespace gg::service {
namespace {

/// The live dispatch: the device choose() names, then claim() on it.
std::size_t acquire(CircuitBreaker& b) {
  const std::size_t device = b.choose();
  b.claim(device);
  return device;
}

BreakerConfig config(int threshold, int probe_after) {
  BreakerConfig c;
  c.failure_threshold = threshold;
  c.probe_after = probe_after;
  return c;
}

TEST(CircuitBreaker, RejectsZeroDevices) {
  EXPECT_THROW(CircuitBreaker(0, config(3, 4)), std::invalid_argument);
}

TEST(CircuitBreaker, RoundRobinCursorIsTheCompletionCount) {
  CircuitBreaker b(2, config(3, 4));
  EXPECT_EQ(acquire(b), 0u);
  // A claim alone never advances the cursor — only completions do.
  EXPECT_EQ(acquire(b), 0u);
  b.on_result(0, true);
  EXPECT_EQ(acquire(b), 1u);
  b.on_result(1, true);
  EXPECT_EQ(acquire(b), 0u);
  EXPECT_EQ(b.completions(), 2u);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresOnly) {
  CircuitBreaker b(2, config(2, 4));
  EXPECT_EQ(b.on_result(0, false), CircuitBreaker::Event::kNone);
  // A success resets the consecutive-failure count…
  EXPECT_EQ(b.on_result(0, true), CircuitBreaker::Event::kNone);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kClosed);
  // …so quarantine needs the full threshold again.
  EXPECT_EQ(b.on_result(0, false), CircuitBreaker::Event::kNone);
  EXPECT_EQ(b.on_result(0, false), CircuitBreaker::Event::kOpened);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreaker, OpenDeviceIsSkippedByRotation) {
  CircuitBreaker b(2, config(2, 4));
  b.on_result(0, false);
  b.on_result(0, false);  // device 0 quarantined, completions = 2
  ASSERT_EQ(b.state(0), CircuitBreaker::State::kOpen);
  // Cursor 2 % 2 = 0 points at the open device; rotation steps past it.
  EXPECT_EQ(acquire(b), 1u);
}

TEST(CircuitBreaker, ProbesAfterEnoughCompletionsElsewhere) {
  CircuitBreaker b(2, config(2, 3));
  b.on_result(0, false);
  b.on_result(0, false);  // opened_at = 2
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(acquire(b), 1u) << "not probe-ready yet";
    b.on_result(1, true);
  }
  b.on_result(1, true);  // completions = 5 >= opened_at + probe_after
  EXPECT_EQ(acquire(b), 0u);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kHalfOpen);
  // The probe succeeds: the device is healthy again.
  EXPECT_EQ(b.on_result(0, true), CircuitBreaker::Event::kClosed);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsTheClock) {
  CircuitBreaker b(2, config(2, 3));
  b.on_result(0, false);
  b.on_result(0, false);  // opened_at = 2
  b.on_result(1, true);
  b.on_result(1, true);
  b.on_result(1, true);  // completions = 5: probe due
  ASSERT_EQ(acquire(b), 0u);
  EXPECT_EQ(b.on_result(0, false), CircuitBreaker::Event::kReopened);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kOpen);
  // opened_at restarted at 6: the very next acquire goes back to rotation.
  EXPECT_EQ(acquire(b), 1u);
  b.on_result(1, true);
  b.on_result(1, true);
  EXPECT_EQ(acquire(b), 1u) << "probe clock restarted, 8 < 6 + 3";
  b.on_result(1, true);  // completions = 9
  EXPECT_EQ(acquire(b), 0u) << "second probe due";
}

TEST(CircuitBreaker, AllOpenForceProbesTheLongestQuarantined) {
  CircuitBreaker b(2, config(1, 100));
  b.on_result(1, false);  // device 1 opened first (opened_at = 1)
  b.on_result(0, false);  // device 0 opened second (opened_at = 2)
  ASSERT_EQ(b.state(0), CircuitBreaker::State::kOpen);
  ASSERT_EQ(b.state(1), CircuitBreaker::State::kOpen);
  // No probe is due (probe_after = 100), but the queue must not stall:
  // the longest-quarantined device gets a forced half-open probe.
  EXPECT_EQ(acquire(b), 1u);
  EXPECT_EQ(b.state(1), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreaker, HalfOpenProbeSurvivesRacingCompletions) {
  // A probe is a single in-flight request, but the daemon keeps executing:
  // completions on healthy devices land *between* the probe's dispatch
  // (claim) and its outcome.  Those racing completions must neither
  // disturb the half-open state nor trick choose() into dispatching a
  // second probe at the same device.
  CircuitBreaker b(3, config(2, 2));
  b.on_result(0, false);
  b.on_result(0, false);  // device 0 quarantined, opened_at = 2
  b.on_result(1, true);
  b.on_result(1, true);  // completions = 4: probe due
  ASSERT_EQ(acquire(b), 0u);
  ASSERT_EQ(b.state(0), CircuitBreaker::State::kHalfOpen);
  // The race: two healthy completions arrive while the probe is in flight.
  EXPECT_EQ(b.on_result(1, true), CircuitBreaker::Event::kNone);
  EXPECT_EQ(b.on_result(2, true), CircuitBreaker::Event::kNone);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kHalfOpen)
      << "racing completions must not resolve the probe";
  // completions = 6, cursor 6 % 3 = 0 points at the half-open device —
  // rotation steps past it instead of double-probing.
  EXPECT_EQ(acquire(b), 1u);
  // The probe outcome finally lands and resolves the quarantine.
  EXPECT_EQ(b.on_result(0, true), CircuitBreaker::Event::kClosed);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, RacedProbeFailureCountsTheRacingCompletions) {
  CircuitBreaker b(3, config(2, 2));
  b.on_result(0, false);
  b.on_result(0, false);  // opened_at = 2
  b.on_result(1, true);
  b.on_result(1, true);  // probe due at 4
  ASSERT_EQ(acquire(b), 0u);
  b.on_result(1, true);
  b.on_result(2, true);  // racing completions: 6
  // The probe fails after the race: re-quarantined with the clock restarted
  // from *now* (7), so the raced completions do not shorten the next wait.
  EXPECT_EQ(b.on_result(0, false), CircuitBreaker::Event::kReopened);
  EXPECT_EQ(acquire(b), 1u) << "7 < 7 + 2: not probe-ready";
  b.on_result(1, true);
  EXPECT_EQ(acquire(b), 2u) << "8 < 7 + 2: still waiting";
  b.on_result(2, true);  // completions = 9
  EXPECT_EQ(acquire(b), 0u) << "second probe due at 9";
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreaker, ChooseChangesNothingClaimStartsTheProbe) {
  CircuitBreaker b(2, config(1, 1));
  b.on_result(0, false);  // device 0 opened at 1
  b.on_result(1, true);   // completions = 2: probe due
  EXPECT_EQ(b.choose(), 0u);
  EXPECT_EQ(b.choose(), 0u) << "choose() is a pure query";
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kOpen);
  b.claim(0);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kHalfOpen);
  b.claim(1);  // claiming a closed device changes nothing
  EXPECT_EQ(b.state(1), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, ReplayingOutcomesRebuildsIdenticalState) {
  // The resume property the daemon relies on: state is a function of the
  // claim and outcome sequence, so feeding the same stream into a fresh
  // breaker converges to the same choice.  The claims matter: a replay that
  // skips the claim of a failed probe never sees the device half-open, so
  // on_result() counts one more failure instead of re-opening it and
  // restarting its probe clock.
  struct Step {
    bool claim;
    std::size_t device;
    bool ok;
  };
  const Step steps[] = {{true, 0, true},  {false, 0, true}, {true, 1, false},
                        {false, 1, false}, {true, 0, true},  {false, 0, true},
                        {true, 1, false},  {false, 1, false}};
  CircuitBreaker live(2, config(1, 1));
  for (const auto& s : steps) {
    if (s.claim) {
      ASSERT_EQ(acquire(live), s.device);
    } else {
      live.on_result(s.device, s.ok);
    }
  }
  CircuitBreaker rebuilt(2, config(1, 1));
  CircuitBreaker outcomes_only(2, config(1, 1));
  for (const auto& s : steps) {
    if (s.claim) {
      rebuilt.claim(s.device);
    } else {
      rebuilt.on_result(s.device, s.ok);
      outcomes_only.on_result(s.device, s.ok);
    }
  }
  EXPECT_EQ(live.completions(), rebuilt.completions());
  for (std::size_t d = 0; d < 2; ++d) EXPECT_EQ(live.state(d), rebuilt.state(d));
  EXPECT_EQ(live.choose(), rebuilt.choose());
  EXPECT_EQ(live.choose(), 0u) << "device 1 re-opened after its failed probe";
  EXPECT_EQ(outcomes_only.choose(), 1u)
      << "without the claims the rebuilt breaker probes device 1 again";
}

}  // namespace
}  // namespace gg::service
