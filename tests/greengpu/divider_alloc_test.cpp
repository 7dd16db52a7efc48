// Allocation gate of the division tier: after warm-up, Divider::update of
// the step and Qilin profiling dividers allocates nothing, with one GPU and
// with N.  The update runs once per iteration of every divided cell, so a
// heap allocation there is paid by every campaign.  This binary replaces the
// global allocation functions with counting ones (as
// tests/workloads/footprint_test.cpp does).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/greengpu/division.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    p = std::aligned_alloc(alignment, (bytes + alignment - 1) / alignment * alignment);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every other allocation form (array, nothrow) forwards to these two in
// libstdc++; the matching deletes release with free().
void* operator new(std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t al) {
  return counted_alloc(bytes, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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

      const std::size_t before = g_allocations.load();
      std::size_t moves = 0;
      for (int k = 1; k < 60; ++k) {
        const DivisionAction action = iterate(k);
        if (action == DivisionAction::kIncreaseCpu || action == DivisionAction::kDecreaseCpu) {
          ++moves;
        }
      }
      EXPECT_EQ(g_allocations.load() - before, 0u);
      EXPECT_GT(moves, 0u);  // the loop moved the CPU share, not only held
    }
  }
}

}  // namespace
}  // namespace gg::greengpu
