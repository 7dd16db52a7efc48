// Race stress for common::JobPool — the campaign fan-out engine and the
// cudalite kernel executor.
//
// These tests are written for the TSan lane (GREENGPU_SANITIZE=thread):
// they hammer the pool's claim/retire transitions, exception bookkeeping
// and batch recycling hard enough that any unguarded shared state trips the
// race detector, and they re-assert the determinism contract (byte-identical
// output for any worker count, faults included) while doing so.  They pass
// in every lane; TSan is what gives the "no data races" half its teeth.
#include "src/common/job_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cudalite/api.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/policy.h"
#include "src/sim/event_queue.h"
#include "src/sim/platform.h"

namespace gg::common {
namespace {

TEST(JobPoolStress, RepeatedFanOutAcrossPoolSizes) {
  // Many short batches across several pool widths: stresses the batch
  // publish/retire handshake, where a stale `current_` read would race.
  for (const std::size_t workers : {2u, 4u, 8u}) {
    JobPool pool(workers);
    for (int round = 0; round < 40; ++round) {
      std::vector<int> out(96, -1);
      pool.run(out.size(),
               [&out, round](std::size_t i) { out[i] = static_cast<int>(i) * 3 + round; });
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], static_cast<int>(i) * 3 + round);
      }
    }
  }
}

TEST(JobPoolStress, ExceptionStormKeepsLowestIndexDeterministic) {
  // Faulty jobs at fixed indices: the pool must stop issuing work after the
  // first failure and rethrow the lowest-index exception no matter which
  // worker hit one first — racing error bookkeeping would break both.
  JobPool pool(8);
  for (int round = 0; round < 60; ++round) {
    try {
      pool.run(64, [](std::size_t i) {
        if (i % 7 == 3) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");
    }
  }
}

TEST(JobPoolStress, NestedEventQueueChurnInsideJobs) {
  // Every job owns a private EventQueue and churns its slab (schedule,
  // cancel, reschedule-from-callback).  Queues are single-owner by
  // contract; running many side by side under TSan proves the slab pooling
  // shares nothing across instances.
  JobPool pool(4);
  std::vector<std::uint64_t> fired(32);
  pool.run(fired.size(), [&fired](std::size_t job) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    int chained = 0;
    for (int round = 0; round < 20; ++round) {
      handles.clear();
      for (int e = 0; e < 50; ++e) {
        handles.push_back(q.schedule_in(
            Seconds{0.001 * (e % 10 + 1)}, [&q, &chained] {
              if (chained < 5) {
                ++chained;
                q.schedule_in(Seconds{0.0005}, [] {});
              }
            }));
      }
      for (std::size_t h = 0; h < handles.size(); h += 3) handles[h].cancel();
      chained = 0;
      q.run_until(q.now() + Seconds{1.0});
    }
    fired[job] = q.fired_count();
  });
  // Identical deterministic churn in every job: identical counts.
  for (const std::uint64_t f : fired) EXPECT_EQ(f, fired[0]);
}

TEST(JobPoolStress, CellsLaunchKernelsOnTheirOwnInnerPools) {
  // The campaign's shape: cells on an outer pool, each with its own
  // cudalite runtime whose kernels run on an inner pool (1-3 runners, so
  // inner pools of every width start and stop side by side).  Each cell
  // iterates an elementwise kernel, fans a block reduction out on its
  // runtime's pool, and must land on the serially computed bits.
  constexpr std::size_t kCells = 12;
  constexpr std::size_t kItems = 4099;
  constexpr std::size_t kBlock = 500;
  constexpr int kIterations = 8;
  const auto kernel = [](double x, std::size_t i) {
    return x * 0.5 + static_cast<double>(i % 97);
  };
  std::vector<double> expected(kItems, 1.0);
  for (int it = 0; it < kIterations; ++it) {
    for (std::size_t i = 0; i < kItems; ++i) expected[i] = kernel(expected[i], i);
  }

  JobPool outer(4);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<double>> results(kCells);
    std::vector<double> block_sums(kCells * ((kItems + kBlock - 1) / kBlock));
    outer.run(kCells, [&](std::size_t cell) {
      sim::Platform platform;
      cudalite::Runtime rt(platform, 1 + cell % 3);
      cudalite::Stream stream = rt.create_stream();
      cudalite::WorkEstimate estimate;
      estimate.overhead_per_unit_s = 1e-3;
      std::vector<double> x(kItems, 1.0);
      for (int it = 0; it < kIterations; ++it) {
        ASSERT_TRUE(rt.launch_range(stream, kItems, estimate,
                                    [&](std::size_t begin, std::size_t end) {
                                      for (std::size_t i = begin; i < end; ++i) {
                                        x[i] = kernel(x[i], i);
                                      }
                                    }));
        rt.synchronize(stream);
      }
      const std::size_t blocks = (kItems + kBlock - 1) / kBlock;
      rt.pool().run(blocks, [&](std::size_t b) {
        double sum = 0.0;
        for (std::size_t i = b * kBlock; i < std::min(kItems, (b + 1) * kBlock); ++i) {
          sum += x[i];
        }
        block_sums[cell * blocks + b] = sum;
      });
      results[cell] = std::move(x);
    });
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      ASSERT_EQ(results[cell], expected) << "round " << round << ", cell " << cell;
    }
    const std::size_t blocks = block_sums.size() / kCells;
    for (std::size_t cell = 1; cell < kCells; ++cell) {
      for (std::size_t b = 0; b < blocks; ++b) {
        ASSERT_EQ(block_sums[cell * blocks + b], block_sums[b]) << "cell " << cell;
      }
    }
  }
}

/// CSV + JSON reports for the campaign at a given worker count.
std::pair<std::string, std::string> campaign_reports(std::size_t jobs) {
  greengpu::CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  cfg.policies = {greengpu::Policy::best_performance(), greengpu::Policy::green_gpu()};
  cfg.options.faults.seed = 20260806;
  cfg.options.faults.util_drop_rate = 0.05;
  cfg.options.faults.util_stale_rate = 0.05;
  cfg.options.faults.clock_reject_rate = 0.05;
  cfg.jobs = jobs;
  const greengpu::CampaignResult r = run_campaign(cfg);
  std::ostringstream csv, json;
  write_campaign_csv(csv, r);
  write_campaign_json(json, r);
  return {csv.str(), json.str()};
}

TEST(JobPoolStress, CampaignFanOutUnderFaultInjectionStaysByteIdentical) {
  // The end-to-end race stress the lint/TSan lane exists for: full faulted
  // campaign cells (platform + event queue + fault injector per cell)
  // fanned across workers, with the report compared byte-for-byte against
  // the serial run.
  const auto serial = campaign_reports(1);
  EXPECT_EQ(serial, campaign_reports(4));
}

}  // namespace
}  // namespace gg::common
