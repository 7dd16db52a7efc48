// CpuGovernor::attach() runs back-to-back samples inline (off the event
// heap).  For every governor kind, a governor attached that way must take
// the same decisions, at the same instants, with the same utilizations and
// leave the same energy and activity integrals, bit for bit, as the same
// governor's step() driven by an ordinary self-re-arming heap event — also
// across a checkpoint/resume through attach_at().
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/greengpu/cpu_governor.h"
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
  std::vector<std::uint64_t> decisions;  // (time, util, level) triples
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
  for (const GovernorDecision& d : gov.decisions()) {
    o.decisions.push_back(bits(d.time.get()));
    o.decisions.push_back(bits(d.util));
    o.decisions.push_back(d.level);
  }
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

class GovernorInline : public ::testing::TestWithParam<CpuGovernorKind> {
 protected:
  std::unique_ptr<CpuGovernor> make(sim::Platform& platform) const {
    return make_cpu_governor(GetParam(), platform);
  }
};

TEST_P(GovernorInline, AttachMatchesHeapDrivenSteps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Platform heap_platform;
    const auto heap_gov = make(heap_platform);
    HeapDriven heap_ticks(*heap_gov, heap_platform.queue());
    heap_ticks.arm();
    Workload(seed).run(heap_platform, kActions);

    sim::Platform platform;
    const auto gov = make(platform);
    gov->attach();
    Workload(seed).run(platform, kActions);

    ASSERT_GT(gov->decisions().size(), 100u);
    EXPECT_EQ(outcome_of(*gov, platform), outcome_of(*heap_gov, heap_platform))
        << "seed " << seed;
    // Sequence numbers, fired count and compactions too.
    EXPECT_EQ(queue_bytes(platform), queue_bytes(heap_platform)) << "seed " << seed;
  }
}

TEST_P(GovernorInline, ResumeThroughAttachAtMatchesHeapDrivenSteps) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    sim::Platform heap_platform;
    const auto heap_gov = make(heap_platform);
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
      const auto gov = make(platform);
      gov->attach();
      work.run(platform, kActions / 2);
      gov->detach();
      ASSERT_FALSE(gov->decisions().empty());
      next_tick = gov->decisions().back().time + gov->interval();
      platform.save(w);
      gov->save(w);
    }
    sim::Platform platform;
    common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
    platform.load(r);
    const auto gov = make(platform);
    gov->load(r);
    gov->attach_at(next_tick);
    work.run(platform, kActions / 2);

    EXPECT_EQ(outcome_of(*gov, platform), outcome_of(*heap_gov, heap_platform))
        << "seed " << seed;
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
