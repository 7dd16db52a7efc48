// Allocation gate of the CPU governor's leap: once warm, an attached
// ondemand governor leaping a long synchronous-wait spin makes no
// operator new call, under the retention modes that keep a bounded record
// (kRing fills its reserved ring, kCounters keeps a count).  The governor
// samples every 0.1 s of every cell, so a heap allocation per leaped sample
// would be paid more than any other in the sweep.  This binary counts
// allocations with tests/common/counting_new.h.
#include <gtest/gtest.h>

#include <string>

#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/telemetry.h"
#include "src/sim/platform.h"
#include "tests/common/counting_new.h"

namespace gg::greengpu {
namespace {

/// Spin for `seconds`, ended by a heap event, as a synchronous copy does.
void spin(sim::Platform& platform, double seconds) {
  sim::EventQueue& queue = platform.queue();
  bool done = false;
  platform.cpu().set_spinning(true);
  queue.schedule_in(Seconds{seconds}, [&done] { done = true; });
  while (!done) ASSERT_TRUE(queue.step());
  platform.cpu().set_spinning(false);
  queue.run_until(queue.now() + Seconds{1.05});
}

TEST(GovernorAllocation, LeapingASpinAllocatesNothingOnceWarm) {
  for (const RecordMode mode : {RecordMode::kRing, RecordMode::kCounters}) {
    SCOPED_TRACE(mode == RecordMode::kRing ? "ring" : "counters");
    sim::Platform platform;
    OndemandGovernor gov(platform);
    gov.set_record(RecordOptions{mode, 64});
    gov.attach();
    spin(platform, 50.0);  // warm-up: heap, slab and ring at working size

    const std::uint64_t leaped = gov.leaped();
    const std::size_t before = counting_new::g_allocations.load();
    spin(platform, 2000.0);
    EXPECT_EQ(counting_new::g_allocations.load() - before, 0u);
    EXPECT_GT(gov.leaped() - leaped, 19'000u);
  }
}

}  // namespace
}  // namespace gg::greengpu
