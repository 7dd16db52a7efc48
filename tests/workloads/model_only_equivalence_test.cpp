// Model-only ≡ full over the whole workload registry.
//
// A model-only cell builds no inputs and never touches device storage, so
// every simulated quantity must come from the workload's config.  A size
// read from a host buffer that is empty under kModelOnly would change a
// transfer charge or an allocation; these tests pin the simulated results
// AND the runtime's transfer counters of a model-only run to the full run's,
// for every registry name under each of the paper's four policies.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "src/greengpu/runner.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace_workload.h"

namespace gg::workloads {
namespace {

using greengpu::ExperimentEngine;
using greengpu::ExperimentResult;
using greengpu::Policy;
using greengpu::RunOptions;

struct Observed {
  ExperimentResult result;
  cudalite::RuntimeStats stats;
};

Observed run(Workload& workload, const Policy& policy, bool model_only) {
  RunOptions options;
  options.pool_workers = 2;
  options.model_only = model_only;
  ExperimentEngine engine(workload, policy, options);
  Observed out;
  out.result = engine.run();
  out.stats = engine.runtime().stats();
  return out;
}

void expect_same_simulation(const Observed& full, const Observed& model,
                            const std::string& what) {
  EXPECT_TRUE(full.result.verified) << what;
  EXPECT_TRUE(model.result.verify_skipped) << what;

  const ExperimentResult& f = full.result;
  const ExperimentResult& m = model.result;
  EXPECT_EQ(m.exec_time.get(), f.exec_time.get()) << what;
  EXPECT_EQ(m.gpu_energy.get(), f.gpu_energy.get()) << what;
  EXPECT_EQ(m.cpu_energy.get(), f.cpu_energy.get()) << what;
  EXPECT_EQ(m.final_ratio, f.final_ratio) << what;
  EXPECT_EQ(m.division_moves, f.division_moves) << what;
  EXPECT_EQ(m.scaler_decision_count, f.scaler_decision_count) << what;
  ASSERT_EQ(m.scaler_decisions.size(), f.scaler_decisions.size()) << what;
  for (std::size_t i = 0; i < f.scaler_decisions.size(); ++i) {
    EXPECT_EQ(m.scaler_decisions[i].time.get(), f.scaler_decisions[i].time.get())
        << what << " decision " << i;
    EXPECT_EQ(m.scaler_decisions[i].chosen, f.scaler_decisions[i].chosen)
        << what << " decision " << i;
  }

  const cudalite::RuntimeStats& fs = full.stats;
  const cudalite::RuntimeStats& ms = model.stats;
  EXPECT_EQ(ms.h2d_copies, fs.h2d_copies) << what;
  EXPECT_EQ(ms.d2h_copies, fs.d2h_copies) << what;
  EXPECT_EQ(ms.bytes_h2d, fs.bytes_h2d) << what;
  EXPECT_EQ(ms.bytes_d2h, fs.bytes_d2h) << what;
  EXPECT_EQ(ms.async_copies, fs.async_copies) << what;
  EXPECT_EQ(ms.device_bytes_peak, fs.device_bytes_peak) << what;
  EXPECT_EQ(ms.kernels_launched, fs.kernels_launched) << what;
  EXPECT_EQ(ms.host_tasks, fs.host_tasks) << what;
}

std::vector<Policy> paper_policies() {
  return {Policy::best_performance(), Policy::scaling_only(), Policy::division_only(),
          Policy::green_gpu()};
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (std::string_view n : accepted_workload_names()) names.emplace_back(n);
  return names;
}

class ModelOnlyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ModelOnlyEquivalence, MatchesFullRun) {
  const auto& [name, policy_index] = GetParam();
  const Policy policy = paper_policies()[policy_index];
  auto full_wl = make_workload(name);
  auto model_wl = make_workload(name);
  const Observed full = run(*full_wl, policy, /*model_only=*/false);
  const Observed model = run(*model_wl, policy, /*model_only=*/true);
  expect_same_simulation(full, model, name + " / " + policy.name);
  // Every registry workload holds device memory and moves bytes: a zero
  // here would mean a count came from an empty host buffer in BOTH modes.
  EXPECT_GT(full.stats.device_bytes_peak, 0u) << name;
  EXPECT_GT(full.stats.bytes_h2d, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ModelOnlyEquivalence,
    ::testing::Combine(::testing::ValuesIn(registry_names()),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{3})),
    [](const auto& param_info) {
      const std::string policy = paper_policies()[std::get<1>(param_info.param)].name;
      std::string id = std::get<0>(param_info.param) + "_" + policy;
      for (char& c : id) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return id;
    });

TEST(ModelOnlyEquivalence, TraceWorkloadMatchesFullRun) {
  const std::vector<TracePhase> phases = {{0.9, 0.3, 20.0}, {0.2, 0.8, 15.0},
                                          {0.6, 0.6, 30.0}};
  for (const Policy& policy : paper_policies()) {
    TraceWorkload full_wl(phases);
    TraceWorkload model_wl(phases);
    const Observed full = run(full_wl, policy, /*model_only=*/false);
    const Observed model = run(model_wl, policy, /*model_only=*/true);
    expect_same_simulation(full, model, "trace-replay / " + policy.name);
  }
}

}  // namespace
}  // namespace gg::workloads
