// Equivalence suite for the scaler fast path: the quantized loss tables,
// the fused weight update and the full Algorithm 1 step must be
// *bit-identical* to the straight-line oracle (wma_oracle.h) — with the
// fault layer off and on.
#include "src/greengpu/wma_scaler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cudalite/api.h"
#include "src/greengpu/loss.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/weight_table.h"
#include "src/sim/dvfs.h"
#include "src/sim/fault.h"
#include "tests/greengpu/wma_oracle.h"

namespace gg::greengpu {
namespace {

using namespace gg::literals;

// --- quantized loss tables -------------------------------------------------

TEST(QuantizedLossTable, EveryRowMatchesComponentLossBitExactly) {
  for (const auto& table : {sim::geforce8800_core_table(), sim::geforce8800_memory_table()}) {
    const auto umean = umean_table(table);
    const QuantizedLossTable q(umean, 0.15, 0.3);
    for (unsigned pct = 0; pct <= 100; ++pct) {
      for (std::size_t i = 0; i < umean.size(); ++i) {
        const double want =
            0.3 * component_loss(static_cast<double>(pct) / 100.0, umean[i], 0.15);
        EXPECT_EQ(q.at(pct, i), want) << "pct=" << pct << " level=" << i;
      }
    }
  }
}

TEST(QuantizedLossTable, ZeroPercentRowIsPureEnergyLoss) {
  const std::vector<double> umean{0.0, 0.25, 0.5, 0.75, 1.0};
  const double alpha = 0.15;
  const QuantizedLossTable q(umean, alpha);
  // u = 0: every level wastes exactly its umean worth of capacity.
  for (std::size_t i = 0; i < umean.size(); ++i) {
    EXPECT_EQ(q.at(0, i), alpha * umean[i]);
  }
}

TEST(QuantizedLossTable, BoundaryUmeanRowHasZeroLossAtItsLevel) {
  // When the sampled percent lands exactly on a level's umean, that level's
  // loss is exactly zero (raw_loss yields 0/0 at u == umean).
  const std::vector<double> umean{0.0, 0.25, 0.5, 0.75, 1.0};
  const QuantizedLossTable q(umean, 0.15);
  EXPECT_EQ(q.at(0, 0), 0.0);
  EXPECT_EQ(q.at(25, 1), 0.0);
  EXPECT_EQ(q.at(50, 2), 0.0);
  EXPECT_EQ(q.at(75, 3), 0.0);
  EXPECT_EQ(q.at(100, 4), 0.0);
}

TEST(QuantizedLossTable, HundredPercentRowIsPurePerformanceLoss) {
  const std::vector<double> umean{0.0, 0.25, 0.5, 0.75, 1.0};
  const double alpha = 0.15;
  const QuantizedLossTable q(umean, alpha);
  for (std::size_t i = 0; i < umean.size(); ++i) {
    EXPECT_EQ(q.at(100, i), (1.0 - alpha) * (1.0 - umean[i]));
  }
}

TEST(QuantizedLossTable, CorruptPercentagesClampToHundredRow) {
  // Corrupt NVML samples can exceed 100; component_loss clamps u into [0,1],
  // and the table clamps the row index — same result.
  const auto umean = umean_table(sim::geforce8800_core_table());
  const QuantizedLossTable q(umean, 0.15);
  EXPECT_EQ(q.row(101), q.row(100));
  EXPECT_EQ(q.row(255), q.row(100));
  for (std::size_t i = 0; i < umean.size(); ++i) {
    EXPECT_EQ(q.at(200, i), component_loss(2.0, umean[i], 0.15));
  }
}

// --- fused weight update ---------------------------------------------------

TEST(WeightTableFused, BitIdenticalToUpdateThenArgmaxOverRandomSequences) {
  Rng rng(7);
  const double phi = 0.3, beta = 0.2, floor = 1e-2;
  oracle::Weights ref(6, 5);
  WeightTable fast(6, 5);
  std::vector<double> cl(6), ml(5), scl(6), sml(5);
  for (int step = 0; step < 500; ++step) {
    for (auto& x : cl) x = rng.uniform();
    for (auto& x : ml) x = rng.uniform();
    for (std::size_t i = 0; i < cl.size(); ++i) scl[i] = phi * cl[i];
    for (std::size_t j = 0; j < ml.size(); ++j) sml[j] = (1.0 - phi) * ml[j];

    ref.update(cl, ml, phi, beta, floor);
    const PairIndex want = ref.argmax();
    const PairIndex got = fast.update_fused(scl.data(), sml.data(), 1.0 - beta, floor);

    ASSERT_EQ(got, want) << "step " << step;
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        ASSERT_EQ(fast.weight(i, j), ref.weight(i, j))
            << "step " << step << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(WeightTableFused, TieBreaksTowardLowerIndicesLikeArgmax) {
  // Zero losses leave every weight at the shared maximum; both paths must
  // pick (0, 0).
  WeightTable fast(4, 4);
  const std::vector<double> zeros(4, 0.0);
  const PairIndex got = fast.update_fused(zeros.data(), zeros.data(), 0.8, 1e-2);
  EXPECT_EQ(got, (PairIndex{0, 0}));
  EXPECT_EQ(oracle::Weights(4, 4).argmax(), (PairIndex{0, 0}));
}

// --- decision streams replayed through the oracle ----------------------------

std::vector<oracle::Sample> samples_of(const std::vector<ScalerDecision>& decisions) {
  std::vector<oracle::Sample> out;
  out.reserve(decisions.size());
  for (const ScalerDecision& d : decisions) {
    out.push_back(oracle::Sample{d.core_util, d.mem_util, d.sample_ok});
  }
  return out;
}

std::vector<oracle::Step> replay(const WmaParams& params,
                                 const std::vector<ScalerDecision>& decisions) {
  return oracle::replay(params, umean_table(sim::geforce8800_core_table()),
                        umean_table(sim::geforce8800_memory_table()), samples_of(decisions));
}

ExperimentResult run_with(bool faults, const std::string& workload) {
  GreenGpuParams params;
  params.hardened = faults;  // exercise hold/retry paths under faults
  RunOptions options;
  if (faults) {
    options.faults.seed = 99;
    options.faults.util_drop_rate = 0.08;
    options.faults.util_stale_rate = 0.05;
    options.faults.util_corrupt_rate = 0.05;
    options.faults.clock_reject_rate = 0.08;
  }
  return run_experiment(workload, Policy::scaling_only(params), options);
}

/// Replays every decision of one fast-path run through the oracle and
/// checks each chosen pair.  The decision stream drives the clocks, so
/// stream identity means the whole simulation follows the equations.
void expect_oracle_stream(const ExperimentResult& run, const WmaParams& params) {
  ASSERT_GT(run.scaler_decisions.size(), 0u);
  ASSERT_EQ(run.scaler_decisions.size(), run.scaler_decision_count);
  const std::vector<oracle::Step> want = replay(params, run.scaler_decisions);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(run.scaler_decisions[i].chosen, want[i].chosen) << "decision " << i;
  }
}

TEST(ScalerFastPath, DecisionStreamMatchesReferenceFaultFree) {
  expect_oracle_stream(run_with(false, "pathfinder"), WmaParams{});
}

TEST(ScalerFastPath, DecisionStreamMatchesReferenceOnSecondWorkload) {
  expect_oracle_stream(run_with(false, "lud"), WmaParams{});
}

TEST(ScalerFastPath, DecisionStreamMatchesReferenceUnderFaultInjection) {
  const ExperimentResult run = run_with(true, "pathfinder");
  // The fault channels must actually fire, and the hold path must be taken,
  // for this test to mean anything.
  EXPECT_GT(run.fault_event_count, 0u);
  std::size_t held = 0;
  for (const ScalerDecision& d : run.scaler_decisions) held += d.sample_ok ? 0 : 1;
  EXPECT_GT(held, 0u);
  expect_oracle_stream(run, WmaParams{});
}

/// Steps a scaler by hand over `steps` intervals of random utilization and
/// compares every weight with the oracle's after each step.
void expect_weights_match_oracle(const WmaParams& params, const sim::FaultConfig& faults,
                                 int steps, bool hardened = false) {
  sim::Platform platform;
  if (faults.any_faults()) platform.install_faults(faults);
  cudalite::Runtime rt(platform, 1);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler scaler(nvml, settings, params, hardened);
  oracle::WmaOracle ref(params, umean_table(settings.core_table()),
                        umean_table(settings.mem_table()));
  Rng rng(21);
  const auto& spec = platform.gpu().spec();
  std::size_t held = 0;
  for (int k = 1; k <= steps; ++k) {
    // One kernel busy for the whole interval at a random core/memory mix.
    cudalite::WorkEstimate est;
    est.units = 3.0 / 1e-3;
    est.core_cycles_per_unit = rng.uniform() * 1e-3 * spec.core_throughput(576_MHz);
    est.mem_bytes_per_unit = rng.uniform() * 1e-3 * spec.mem_bandwidth(900_MHz);
    est.overhead_per_unit_s = 1e-3;
    auto stream = rt.create_stream();
    rt.launch_range(stream, 1, est, [](std::size_t, std::size_t) {});
    platform.queue().run_until(Seconds{3.0 * k});
    const ScalerDecision d = scaler.step(platform.now());
    held += d.sample_ok ? 0 : 1;
    ASSERT_EQ(d.chosen, ref.step(d.core_util, d.mem_util, d.sample_ok)) << "step " << k;
    const WeightTable& table = scaler.table();
    for (std::size_t i = 0; i < table.core_levels(); ++i) {
      for (std::size_t j = 0; j < table.mem_levels(); ++j) {
        ASSERT_EQ(table.weight(i, j), ref.weights().weight(i, j))
            << "step " << k << " cell (" << i << "," << j << ")";
      }
    }
  }
  if (hardened && faults.any_faults()) {
    EXPECT_GT(held, 0u);
  }
}

TEST(ScalerFastPath, WeightsMatchOracleAfterEveryStep) {
  expect_weights_match_oracle(WmaParams{}, sim::FaultConfig{}, 200);
  // Non-default parameters fold into different pre-blended rows.
  WmaParams tuned;
  tuned.alpha_core = 0.4;
  tuned.alpha_mem = 0.1;
  tuned.phi = 0.6;
  tuned.beta = 0.35;
  expect_weights_match_oracle(tuned, sim::FaultConfig{}, 200);
  // phi = 1 drops the memory loss, so every memory level ties with the
  // best one: the tie-break alone picks the (peak) memory clock.
  WmaParams core_only;
  core_only.phi = 1.0;
  expect_weights_match_oracle(core_only, sim::FaultConfig{}, 50);
}

TEST(ScalerFastPath, WeightsMatchOracleAfterEveryHardenedFaultyStep) {
  // Dropped, stale and corrupt (above 100 %) samples, plus rejected clock
  // writes: held steps keep the weights, corrupt ones clamp to the 100 row.
  sim::FaultConfig faults;
  faults.seed = 5;
  faults.util_drop_rate = 0.1;
  faults.util_stale_rate = 0.1;
  faults.util_corrupt_rate = 0.1;
  faults.clock_reject_rate = 0.1;
  expect_weights_match_oracle(WmaParams{}, faults, 200, /*hardened=*/true);
  // Un-hardened, the same samples are all learned from.
  expect_weights_match_oracle(WmaParams{}, faults, 200);
}

}  // namespace
}  // namespace gg::greengpu
