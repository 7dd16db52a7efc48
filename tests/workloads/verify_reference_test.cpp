// `verify(pool)` recomputes the nbody and kmeans references on the pool it
// is handed, in fixed blocks that do not depend on the pool's size and never
// cover the same items as a launch chunk.  A full run verifies on pools of
// every size, not only the one its kernels used; a run whose merge step was
// skipped once fails at every pool size; and the kmeans run's centroids
// equal the serial reference loop bit for bit.  For every workload, one
// object's `reference` verifies another object's correct run and refuses a
// run with a skipped merge, as a campaign shares it across a row's cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/job_pool.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/bfs.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/nbody.h"
#include "src/workloads/registry.h"
#include "tests/workloads/hand_driven_run.h"
#include "tests/workloads/kernel_oracles.h"

namespace gg::workloads {
namespace {

/// The runs' kernel pool; every verify pool below differs from it in size.
constexpr std::size_t kKernelWorkers = 4;
constexpr std::size_t kVerifyWorkers[] = {1, 2, 3};

struct Case {
  std::string label;
  std::unique_ptr<Workload> (*make)();
  /// The finish_iteration the perturbed run skips.
  std::size_t skip;
};

std::unique_ptr<Workload> nbody_default() { return std::make_unique<Nbody>(); }
std::unique_ptr<Workload> kmeans_default() { return std::make_unique<Kmeans>(); }
std::unique_ptr<Workload> kmeans_odd() {
  // Not a multiple of the reference block.
  KmeansConfig cfg;
  cfg.points = 4999;
  cfg.iterations = 6;
  return std::make_unique<Kmeans>(cfg);
}

// kmeans converges, so its perturbed runs skip the last merge: a skipped
// early merge can be healed by the remaining iterations.
const Case kCases[] = {
    {"nbody", nbody_default, 20},
    {"kmeans", kmeans_default, 39},
    {"kmeans_4999x6", kmeans_odd, 5},
};

TEST(VerifyReference, FullRunVerifiesOnPoolsOfOtherSizes) {
  // green_gpu divides the work; best_performance launches all of [0, N) as
  // one range, the launch partition the reference must not reuse.
  for (const greengpu::Policy& policy :
       {greengpu::Policy::green_gpu(), greengpu::Policy::best_performance()}) {
    for (const Case& c : kCases) {
      auto wl = c.make();
      greengpu::RunOptions options;
      options.pool_workers = kKernelWorkers;
      const auto r = greengpu::run_experiment(*wl, policy, options);
      EXPECT_TRUE(r.verified) << c.label << " " << policy.name << " on the kernel pool";
      for (const std::size_t workers : kVerifyWorkers) {
        common::JobPool pool(workers);
        EXPECT_TRUE(wl->verify(pool))
            << c.label << " " << policy.name << " on a " << workers << "-worker pool";
      }
    }
  }
}

TEST(VerifyReference, SkippedMergeFailsAtEveryPoolSize) {
  for (const Case& c : kCases) {
    auto wl = c.make();
    // Control: the same hand-driven run without the skip verifies.
    run_by_hand(*wl, kKernelWorkers, wl->iterations());
    for (const std::size_t workers : {1, 2, 3, 4}) {
      common::JobPool pool(workers);
      EXPECT_TRUE(wl->verify(pool)) << c.label << " unperturbed, " << workers << " workers";
    }
    run_by_hand(*wl, kKernelWorkers, c.skip);
    for (const std::size_t workers : {1, 2, 3, 4}) {
      common::JobPool pool(workers);
      EXPECT_FALSE(wl->verify(pool))
          << c.label << " with merge " << c.skip << " skipped, " << workers << " workers";
    }
  }
}

/// `name`'s workload at its defaults, but bfs with 4 relaxation rounds: its
/// default 96 converge within the first few, after which a lost round heals.
WorkloadPtr make_unhealed(const std::string& name) {
  if (name != "bfs") return make_workload(name);
  BfsConfig cfg;
  cfg.iterations = 4;
  return std::make_unique<Bfs>(cfg);
}

TEST(VerifyReference, OneObjectsReferenceJudgesAnotherObjectsRun) {
  std::vector<std::string> names = all_workload_names();
  for (const std::string& name : pipeline_workload_names()) names.push_back(name);
  ASSERT_EQ(names.size(), 11u);
  common::JobPool pool(3);
  for (const std::string& name : names) {
    greengpu::RunOptions options;
    options.pool_workers = 2;
    auto owner = make_unhealed(name);
    ASSERT_TRUE(
        greengpu::run_experiment(*owner, greengpu::Policy::best_performance(), options).verified)
        << name;
    const Reference ref = owner->reference(pool);
    ASSERT_FALSE(ref.empty()) << name;

    auto other = make_unhealed(name);
    ASSERT_TRUE(greengpu::run_experiment(*other, greengpu::Policy::green_gpu(), options).verified)
        << name;
    EXPECT_TRUE(other->matches(ref)) << name << ": another object's correct run";

    auto skipped = make_unhealed(name);
    run_by_hand(*skipped, kKernelWorkers, skipped->iterations() - 1);
    EXPECT_FALSE(skipped->matches(ref)) << name << ": a run with its last merge skipped";

    auto unrun = make_unhealed(name);
    EXPECT_FALSE(unrun->matches(ref)) << name << ": an object that never ran";
  }
}

TEST(VerifyReference, WithinNeedsEveryElementInTolerance) {
  const Reference ref{1.0, 2.0};
  const auto tight = [](double) { return 1e-9; };
  EXPECT_TRUE(within(std::vector<double>{1.0, 2.0 + 1e-10}, ref, tight));
  EXPECT_FALSE(within(std::vector<double>{1.0, 2.0 + 1e-8}, ref, tight));
  EXPECT_FALSE(within(std::vector<double>{1.0, std::nan("")}, ref, tight));
  EXPECT_FALSE(within(std::vector<double>{1.0}, ref, tight));
  EXPECT_TRUE(within(std::vector<int>{1, 2}, ref, [](double) { return 0.0; }));
  EXPECT_FALSE(within(std::vector<int>{1, 3}, ref, [](double) { return 0.0; }));
}

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The item ranges of a launch of [0, n) on `pool` (`launch_range` runs
/// `run_chunks(n)`).
Ranges launch_chunks(common::JobPool& pool, std::size_t n) {
  Ranges ranges;
  std::mutex mu;
  pool.run_chunks(n, [&](std::size_t b, std::size_t e) {
    const std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(VerifyReference, ReferenceChunksNeverCoverALaunchChunk) {
  // An undivided launch runs [0, N) through run_chunks(N); the reference
  // runs one pool job per block of kVerifyBlock items.  If a reference
  // block covered the same items as a launch chunk, a pool that lost or
  // repeated that job would corrupt both the same way.
  const struct {
    const char* label;
    std::size_t items;
    std::size_t block;
  } kDefaults[] = {{"nbody", NbodyConfig{}.bodies, Nbody::kVerifyBlock},
                   {"kmeans", KmeansConfig{}.points, Kmeans::kVerifyBlock}};
  for (const auto& d : kDefaults) {
    Ranges reference;
    for (std::size_t first = 0; first < d.items; first += d.block) {
      reference.emplace_back(first, std::min(d.items, first + d.block));
    }
    for (std::size_t workers = 1; workers <= 8; ++workers) {
      common::JobPool pool(workers);
      const Ranges launch = launch_chunks(pool, d.items);
      ASSERT_EQ(launch.size(), pool.chunk_count(d.items)) << d.label;
      for (const auto& r : reference) {
        EXPECT_EQ(std::count(launch.begin(), launch.end(), r), 0)
            << d.label << " at " << workers << " workers: [" << r.first << ", " << r.second
            << ") is a launch chunk too";
      }
    }
  }
}

TEST(VerifyReference, KmeansRunMatchesSerialOracleBitForBit) {
  for (const auto make : {kmeans_default, kmeans_odd}) {
    auto owned = make();
    auto& wl = static_cast<Kmeans&>(*owned);
    greengpu::RunOptions options;
    options.pool_workers = kKernelWorkers;
    const greengpu::Policy policy = greengpu::Policy::green_gpu();
    ASSERT_TRUE(greengpu::run_experiment(wl, policy, options).verified);
    const KmeansConfig& cfg = wl.config();
    const std::vector<double> expected =
        oracle::kmeans_run(wl.points(), cfg.dims, cfg.clusters, cfg.iterations);
    ASSERT_EQ(wl.centroids().size(), expected.size()) << cfg.points << " points";
    EXPECT_EQ(std::memcmp(wl.centroids().data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << cfg.points << " points";
  }
}

}  // namespace
}  // namespace gg::workloads
