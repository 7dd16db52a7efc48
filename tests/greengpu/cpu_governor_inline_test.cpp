// CpuGovernor::attach() runs back-to-back samples inline (off the event
// heap) and leaps over the samples that keep the level.  For every governor
// kind and every RecordMode, a governor attached that way must take the
// same decisions, at the same instants, with the same utilizations, count
// the same steps and decisions, leave the same energy and activity
// integrals and the same queue clock and counters, bit for bit, as the same
// governor's step() driven by an ordinary self-re-arming heap event — also
// across a checkpoint/resume through attach_at(), and across spin segments
// of more than 10^4 samples that end in a level change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/telemetry.h"
#include "src/sim/platform.h"

namespace gg::greengpu {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The governor's sampling train as a plain heap event: step() at every
/// tick, re-armed one interval later through schedule_in.
class HeapDriven {
 public:
  HeapDriven(CpuGovernor& gov, sim::EventQueue& queue) : gov_(&gov), queue_(&queue) {}

  void arm() {
    next_ = queue_->schedule_in(gov_->interval(), [this] {
      gov_->step(queue_->now());
      arm();
    });
  }

 private:
  CpuGovernor* gov_;
  sim::EventQueue* queue_;
  sim::EventHandle next_;
};

/// Drives a platform through idle gaps, CPU work waited on with step()
/// loops, synchronous-copy spins and external P-state writes — the shapes
/// the experiment engine produces.  Leaves the CPU quiescent after each
/// action.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : rng_(seed) {}

  void run(sim::Platform& platform, int actions) {
    sim::EventQueue& queue = platform.queue();
    sim::CpuDevice& cpu = platform.cpu();
    for (int i = 0; i < actions; ++i) {
      const double dice = rng_.uniform();
      if (dice < 0.25) {
        queue.run_until(queue.now() + Seconds{rng_.uniform(0.0, 2.0)});
      } else if (dice < 0.65) {
        sim::CpuWork work;
        work.units = 1.0 + rng_.uniform(0.0, 20.0);
        work.ops_per_unit = rng_.uniform(1e7, 4e8);
        work.overhead_per_unit = Seconds{rng_.uniform(0.0, 0.05)};
        work.active_cores = rng_.uniform() < 0.5 ? 1 : 0;
        bool done = false;
        cpu.submit(work, [&done] { done = true; });
        while (!done) ASSERT_TRUE(queue.step());
      } else if (dice < 0.90) {
        bool done = false;
        cpu.set_spinning(true);
        queue.schedule_in(Seconds{rng_.uniform(0.0, 3.0)}, [&done] { done = true; });
        while (!done) ASSERT_TRUE(queue.step());
        queue.run_until(queue.now());
        cpu.set_spinning(false);
      } else {
        cpu.set_level(rng_.uniform_int(cpu.table().levels()));
      }
    }
  }

 private:
  Rng rng_;
};

/// Bit patterns of everything the governor and the CPU accumulated.
struct Outcome {
  std::vector<std::uint64_t> decisions;  // retained (time, util, level) triples
  std::uint64_t decision_count{0};
  std::uint64_t steps{0};
  std::uint64_t cpu_energy{0};
  std::uint64_t spin_energy{0};
  std::uint64_t util_integral{0};
  std::uint64_t busy_integral{0};
  std::uint64_t spin_integral{0};
  std::uint64_t transitions{0};
  std::uint64_t now{0};

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const CpuGovernor& gov, sim::Platform& platform) {
  Outcome o;
  for (const GovernorDecision& d : gov.decisions_snapshot()) {
    o.decisions.push_back(bits(d.time.get()));
    o.decisions.push_back(bits(d.util));
    o.decisions.push_back(d.level);
  }
  o.decision_count = gov.decision_count();
  o.steps = gov.steps();
  o.cpu_energy = bits(platform.cpu().energy().get());
  o.spin_energy = bits(platform.cpu().spin_energy().get());
  const sim::CpuActivityCounters c = platform.cpu().counters();
  o.util_integral = bits(c.util_integral);
  o.busy_integral = bits(c.busy_integral);
  o.spin_integral = bits(c.spin_integral);
  o.transitions = platform.cpu().frequency_transitions();
  o.now = bits(platform.now().get());
  return o;
}

std::vector<std::uint8_t> queue_bytes(sim::Platform& platform) {
  common::SnapshotWriter w;
  platform.queue().save(w);
  return w.payload();
}

constexpr int kActions = 80;

/// Every retention mode; the ring is short enough to wrap.
const RecordOptions kModes[] = {
    {RecordMode::kFull, 256},
    {RecordMode::kRing, 64},
    {RecordMode::kCounters, 256},
};

std::string mode_name(RecordMode mode) {
  switch (mode) {
    case RecordMode::kFull: return "full";
    case RecordMode::kRing: return "ring";
    case RecordMode::kCounters: return "counters";
  }
  return "?";
}

/// `count` repeated interval additions from 0: the instant of the count-th
/// sample of a governor attached at time 0.
Seconds sample_time(std::uint64_t count) {
  Seconds t{0.0};
  for (std::uint64_t i = 0; i < count; ++i) t = t + CpuGovernor::interval();
  return t;
}

class GovernorInline : public ::testing::TestWithParam<CpuGovernorKind> {
 protected:
  std::unique_ptr<CpuGovernor> make(sim::Platform& platform, RecordOptions mode) const {
    auto gov = make_cpu_governor(GetParam(), platform);
    gov->set_record(mode);
    return gov;
  }
  /// The WMA governor learns on every sample, so it must never leap.
  bool leaps() const { return GetParam() != CpuGovernorKind::kWma; }
};

TEST_P(GovernorInline, AttachMatchesHeapDrivenSteps) {
  for (const RecordOptions& mode : kModes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("mode " + mode_name(mode.mode) + " seed " + std::to_string(seed));
      sim::Platform heap_platform;
      const auto heap_gov = make(heap_platform, mode);
      HeapDriven heap_ticks(*heap_gov, heap_platform.queue());
      heap_ticks.arm();
      Workload(seed).run(heap_platform, kActions);

      sim::Platform platform;
      const auto gov = make(platform, mode);
      gov->attach();
      Workload(seed).run(platform, kActions);

      ASSERT_GT(gov->decision_count(), 100u);
      EXPECT_EQ(gov->leaped() > 0, leaps());
      EXPECT_EQ(outcome_of(*gov, platform), outcome_of(*heap_gov, heap_platform));
      // Sequence numbers, fired count and compactions too.
      EXPECT_EQ(queue_bytes(platform), queue_bytes(heap_platform));
    }
  }
}

TEST_P(GovernorInline, ResumeThroughAttachAtMatchesHeapDrivenSteps) {
  for (const RecordOptions& mode : kModes) {
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
      SCOPED_TRACE("mode " + mode_name(mode.mode) + " seed " + std::to_string(seed));
      sim::Platform heap_platform;
      const auto heap_gov = make(heap_platform, mode);
      HeapDriven heap_ticks(*heap_gov, heap_platform.queue());
      heap_ticks.arm();
      Workload heap_work(seed);
      heap_work.run(heap_platform, kActions / 2);
      heap_work.run(heap_platform, kActions / 2);

      // Same run, checkpointed at the quiescent midpoint and resumed on a
      // fresh platform with the sampling phase re-armed via attach_at.
      Workload work(seed);
      common::SnapshotWriter w;
      Seconds next_tick{0.0};
      {
        sim::Platform platform;
        const auto gov = make(platform, mode);
        gov->attach();
        work.run(platform, kActions / 2);
        gov->detach();
        ASSERT_GT(gov->steps(), 0u);
        next_tick = sample_time(gov->steps() + 1);
        platform.save(w);
        gov->save(w);
      }
      sim::Platform platform;
      common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
      platform.load(r);
      const auto gov = make(platform, mode);
      gov->load(r);
      gov->attach_at(next_tick);
      work.run(platform, kActions / 2);

      EXPECT_EQ(outcome_of(*gov, platform), outcome_of(*heap_gov, heap_platform));
    }
  }
}

/// Idle to the lowest level, then a synchronous-wait spin that starts and
/// ends mid-window and lasts more than 10^4 samples, ended by a heap event
/// (the leap's bound is the next heap entry), then idle again up to a
/// run_until() horizon (the leap's bound is the horizon).
void spin_segment(sim::Platform& platform) {
  sim::EventQueue& queue = platform.queue();
  sim::CpuDevice& cpu = platform.cpu();
  queue.run_until(Seconds{3.05});
  cpu.set_spinning(true);
  bool done = false;
  queue.schedule_in(Seconds{1234.567}, [&done] { done = true; });
  while (!done) ASSERT_TRUE(queue.step());
  cpu.set_spinning(false);
  queue.run_until(queue.now() + Seconds{5.0});
}

TEST_P(GovernorInline, LongSpinSegmentEndsInALevelChange) {
  for (const RecordOptions& mode : kModes) {
    SCOPED_TRACE("mode " + mode_name(mode.mode));
    sim::Platform heap_platform;
    const auto heap_gov = make(heap_platform, mode);
    HeapDriven heap_ticks(*heap_gov, heap_platform.queue());
    heap_ticks.arm();
    spin_segment(heap_platform);

    sim::Platform platform;
    const auto gov = make(platform, mode);
    gov->attach();
    const std::uint64_t transitions = platform.cpu().frequency_transitions();
    spin_segment(platform);

    EXPECT_GT(gov->decision_count(), 12'000u);
    EXPECT_EQ(gov->leaped() > 10'000u, leaps());
    EXPECT_EQ(outcome_of(*gov, platform), outcome_of(*heap_gov, heap_platform));
    EXPECT_EQ(queue_bytes(platform), queue_bytes(heap_platform));
    if (GetParam() == CpuGovernorKind::kOndemand ||
        GetParam() == CpuGovernorKind::kConservative) {
      // Down to the floor, up to the peak under the spin, and down again
      // once it ends.
      EXPECT_NE(platform.cpu().level(), 0u);
      EXPECT_GE(platform.cpu().frequency_transitions() - transitions,
                2 * platform.cpu().table().lowest_level() + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GovernorInline,
                         ::testing::Values(CpuGovernorKind::kPerformance,
                                           CpuGovernorKind::kPowersave,
                                           CpuGovernorKind::kOndemand,
                                           CpuGovernorKind::kConservative,
                                           CpuGovernorKind::kWma),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace gg::greengpu
