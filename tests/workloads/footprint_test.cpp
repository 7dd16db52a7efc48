// Footprint and idempotence of workload inputs.
//
// A workload's constructor holds its config only; `setup` builds the real
// inputs under full compute only.  This binary replaces the global
// allocation functions with counting ones to check that:
//
//  * constructing any registry workload allocates almost nothing;
//  * a model-only run allocates little in total — no inputs, no host
//    copies, and no host bytes behind its device allocations;
//
// and, without counting, that inputs built once serve every later full run
// of the same object.
#include <gtest/gtest.h>

#include <string>

#include "src/common/job_pool.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/runner.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace_workload.h"
#include "tests/common/counting_new.h"

namespace gg::workloads {
namespace {

using greengpu::ExperimentEngine;
using greengpu::Policy;
using greengpu::RunOptions;

/// Bytes allocated while `fn` runs (cumulative, frees not subtracted).
template <typename Fn>
std::size_t bytes_allocated_by(Fn&& fn) {
  const std::size_t before = counting_new::g_allocated_bytes.load();
  fn();
  return counting_new::g_allocated_bytes.load() - before;
}

// Largest construction measured is QG's Sobol prefix table (~2 KB;
// every other workload allocates under 0.5 KB).
constexpr std::size_t kConstructBound = 4 * 1024;
// Largest model-only run measured is kmeans_pipeline's ~180 KB (engine,
// controllers, stream ops and event closures); the Table II workloads stay
// under 50 KB.  Device allocations count at their alignment slack only.
// Before inputs moved into setup, kmeans, hotspot and streamcluster each
// allocated ~2 MB of inputs and host copies on top, and before model-only
// device storage shrank every run also allocated its full device size.
constexpr std::size_t kModelOnlyRunBound = 256 * 1024;

TEST(WorkloadFootprint, ConstructionAllocatesOnlyTheConfig) {
  for (std::string_view name : accepted_workload_names()) {
    WorkloadPtr w;
    const std::size_t bytes = bytes_allocated_by([&] { w = make_workload(name); });
    EXPECT_LE(bytes, kConstructBound) << name;
  }
}

TEST(WorkloadFootprint, ModelOnlyRunBuildsNoInputs) {
  // The engine keeps a pointer to the policy: it must outlive the run.
  const Policy policy = Policy::green_gpu();
  for (std::string_view name : accepted_workload_names()) {
    auto w = make_workload(name);
    RunOptions options = greengpu::campaign_default_options();
    options.model_only = true;
    ExperimentEngine engine(*w, policy, options);
    const std::size_t bytes = bytes_allocated_by([&] {
      engine.start();
      while (engine.iteration() < engine.total_iterations()) engine.step_iteration();
      (void)engine.finish();
    });
    EXPECT_LE(bytes, kModelOnlyRunBound) << name;
  }
}

RunOptions quick(bool model_only) {
  RunOptions options;
  options.pool_workers = 2;
  options.model_only = model_only;
  return options;
}

TEST(WorkloadInputs, ModelOnlyThenFullRunVerifies) {
  common::JobPool pool(1);
  for (std::string_view name : accepted_workload_names()) {
    auto w = make_workload(name);
    const auto model = greengpu::run_experiment(*w, Policy::green_gpu(), quick(true));
    EXPECT_FALSE(w->verify(pool)) << name << ": no real output after a model-only run";
    const auto full = greengpu::run_experiment(*w, Policy::green_gpu(), quick(false));
    EXPECT_TRUE(full.verified) << name;
    EXPECT_EQ(model.exec_time.get(), full.exec_time.get()) << name;
  }
}

TEST(WorkloadInputs, FullRunTwiceVerifiesBothTimes) {
  for (std::string_view name : accepted_workload_names()) {
    auto w = make_workload(name);
    const auto first = greengpu::run_experiment(*w, Policy::green_gpu(), quick(false));
    const auto second = greengpu::run_experiment(*w, Policy::green_gpu(), quick(false));
    EXPECT_TRUE(first.verified) << name;
    EXPECT_TRUE(second.verified) << name;
    EXPECT_EQ(first.exec_time.get(), second.exec_time.get()) << name;
  }
}

TEST(WorkloadInputs, TraceWorkloadRunsModelOnlyThenFullTwice) {
  TraceWorkload w({{0.9, 0.3, 20.0}, {0.2, 0.8, 15.0}});
  (void)greengpu::run_experiment(w, Policy::green_gpu(), quick(true));
  common::JobPool pool(1);
  EXPECT_FALSE(w.verify(pool));
  EXPECT_TRUE(greengpu::run_experiment(w, Policy::green_gpu(), quick(false)).verified);
  EXPECT_TRUE(greengpu::run_experiment(w, Policy::green_gpu(), quick(false)).verified);
}

}  // namespace
}  // namespace gg::workloads
