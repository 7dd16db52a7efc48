// The crash model, in process: a campaign dies at a kill-point, and a new
// run resumes it from what the dead one left on disk.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "src/greengpu/recovery.h"
#include "src/sim/crash.h"

namespace gg::greengpu::test {

/// Run the checkpointed campaign until the `nth` hit of `point` throws (the
/// process death a throw-mode kill-point stands in for), then run it again
/// with resume on and return that run's result.  Fails the test if the
/// kill-point never fired.
inline CampaignResult crash_then_resume(const CampaignConfig& config,
                                        CheckpointOptions ckpt, common::KillPoint point,
                                        std::uint64_t nth) {
  {
    sim::CrashInjector crash(point, nth, common::CrashMode::kThrow);
    EXPECT_THROW((void)run_campaign_checkpointed(config, ckpt), common::CrashInjected);
  }
  ckpt.resume = true;
  return run_campaign_checkpointed(config, ckpt);
}

}  // namespace gg::greengpu::test
