// Allocation gates of the per-iteration model: after warm-up,
// Divider::update of the step and Qilin profiling dividers allocates
// nothing, with one GPU and with N, and neither does Platform::snapshot().
// The update runs once per iteration of every divided cell and the snapshot
// twice per iteration of every cell, so a heap allocation in either is paid
// by every campaign.  This binary counts allocations with
// tests/common/counting_new.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/greengpu/division.h"
#include "src/sim/platform.h"
#include "tests/common/counting_new.h"

namespace gg::greengpu {
namespace {

TEST(DividerAllocation, SteadyStateUpdateAllocatesNothing) {
  for (const DividerKind kind : {DividerKind::kStep, DividerKind::kProfiling}) {
    for (const std::size_t slots : {2u, 3u, 5u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " x " + std::to_string(slots));
      const auto divider = make_divider(kind, slots, DivisionParams{});
      // A proportional system whose slots drift apart, so the dividers keep
      // moving: slot i finishes its share in share_i * cost_i.
      std::vector<double> costs(slots);
      std::vector<Seconds> times(slots);
      const auto iterate = [&](int k) {
        for (std::size_t i = 0; i < slots; ++i) {
          costs[i] = i == 0 ? 6.0 + 0.1 * k : 1.0 + 0.05 * static_cast<double>(i * k);
          times[i] = Seconds{divider->shares()[i] * costs[i]};
        }
        return divider->update(times, Joules{100.0}, /*degraded=*/k % 7 == 6);
      };
      (void)iterate(0);  // warm-up: every rate seeded

      const std::size_t before = counting_new::g_allocations.load();
      std::size_t moves = 0;
      for (int k = 1; k < 60; ++k) {
        const DivisionAction action = iterate(k);
        if (action == DivisionAction::kIncreaseCpu || action == DivisionAction::kDecreaseCpu) {
          ++moves;
        }
      }
      EXPECT_EQ(counting_new::g_allocations.load() - before, 0u);
      EXPECT_GT(moves, 0u);  // the loop moved the CPU share, not only held
    }
  }
}

TEST(PlatformAllocation, SnapshotAllocatesNothing) {
  for (const std::size_t gpus : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(gpus) + " cards");
    sim::Platform platform(gpus);
    for (std::size_t g = 0; g < gpus; ++g) {
      const double seconds = 0.5 * static_cast<double>(g + 1);
      platform.gpu(g).submit(sim::KernelWork{1.0, 0.0, 0.0, Seconds{seconds}}, {});
    }
    // Snapshot after every event, while the cards drain one by one.
    std::size_t allocations = 0;
    std::size_t snapshots = 0;
    Joules gpu_energy{0.0};
    while (platform.queue().step()) {
      const std::size_t before = counting_new::g_allocations.load();
      const sim::EnergySnapshot s = platform.snapshot();
      allocations += counting_new::g_allocations.load() - before;
      gpu_energy = s.gpu;
      ++snapshots;
    }
    EXPECT_EQ(allocations, 0u);
    EXPECT_GE(snapshots, gpus);
    EXPECT_GT(gpu_energy.get(), 0.0);
  }
}

}  // namespace
}  // namespace gg::greengpu
