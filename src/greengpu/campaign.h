// Batch experiment campaigns: a (workload x policy) matrix of runs with
// aggregated savings and CSV/JSON reports — the scaffolding behind the
// paper's evaluation section, packaged for reuse.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"

namespace gg::greengpu {

/// Campaign default for RunOptions::record: campaigns only consume the
/// aggregate fields of each ExperimentResult (energies, times, counts), so
/// per-step logs are dropped and memory stays O(1) per cell regardless of
/// run length.  Retention is pure telemetry — reports are bit-identical to
/// full recording.
[[nodiscard]] inline RunOptions campaign_default_options() {
  RunOptions options;
  options.record.mode = RecordMode::kCounters;
  return options;
}

/// How BatchCampaignEngine groups the campaign's cells.  Both engines
/// produce byte-identical reports for the same config (the identity matrix in
/// tests/greengpu/batch_engine_test.cpp, the checked-in goldens of
/// tests/greengpu/campaign_golden_test.cpp and the bench's identical_reports
/// invariants gate this); only wall-clock differs.
enum class CampaignEngine {
  /// One-cell rows: every cell runs with the compute mode and verification
  /// run_experiment() would give it — the full-compute reference.
  kScalar,
  /// BatchCampaignEngine: cells advance in lockstep per workload row, real
  /// verification is memoized once per workload (the other cells run
  /// model-only), and fault-seed replicates fork from a memoized warm-up
  /// prefix snapshot instead of re-simulating it.
  kBatch,
};

/// Parse "scalar" / "batch"; nullopt on anything else (the CLI turns that
/// into its one-line unknown-value rejection, exit 2).
[[nodiscard]] std::optional<CampaignEngine> campaign_engine_from_string(
    std::string_view name);

struct CampaignConfig {
  /// Table II names; empty means the full suite.
  std::vector<std::string> workloads;
  /// Policies to run each workload under.  The FIRST policy is the baseline
  /// that savings are computed against.  Empty means the paper's four:
  /// best-performance, frequency-scaling, division, greengpu.
  std::vector<Policy> policies;
  RunOptions options{campaign_default_options()};
  /// Concurrent cells (0 = hardware_concurrency).  Cells are independent
  /// simulations and every result lands in an index-determined slot, so
  /// reports are byte-identical for every value — including under fault
  /// injection, because each cell's fault RNG is forked from the configured
  /// seed by cell index (see campaign_cell_seed).
  std::size_t jobs{1};
  /// Execution engine; reports are byte-identical across engines.
  CampaignEngine engine{CampaignEngine::kScalar};
  /// Fault-seed sweep: expand every policy into R copies named
  /// "<name>#s<r>" that differ only in their forked fault seed (the flat
  /// cell index feeds campaign_cell_seed, so each replicate draws a distinct
  /// fault schedule).  0 or 1 = no expansion; ignored unless a fault channel
  /// is active.  With options.faults_active_from = W, replicates of one
  /// policy share a bit-identical fault-free warm-up that the batch engine
  /// simulates once and forks.
  std::size_t fault_replicates{0};
};

/// Deterministic per-cell fault seed: forks `base` by flat cell index so a
/// cell's fault schedule depends only on its (workload, policy) position,
/// never on execution order or the number of jobs.
[[nodiscard]] std::uint64_t campaign_cell_seed(std::uint64_t base, std::size_t cell_index);

struct CampaignCell {
  ExperimentResult result;
  /// Energy saving vs the baseline policy on the same workload (fraction).
  double energy_saving{0.0};
  /// Execution-time delta vs the baseline (fraction; positive = slower).
  double time_delta{0.0};
};

struct CampaignResult {
  std::vector<std::string> workloads;
  std::vector<std::string> policy_names;
  /// cells[w * policy_count + p].
  std::vector<CampaignCell> cells;

  [[nodiscard]] const CampaignCell& cell(std::size_t workload_index,
                                         std::size_t policy_index) const;
  /// Mean energy saving of a policy across all workloads (fraction).
  [[nodiscard]] double mean_saving(std::size_t policy_index) const;
  /// True if every run verified.
  [[nodiscard]] bool all_verified() const;
};

/// Progress callback: (workload, policy, completed_runs, total_runs).
using CampaignProgress =
    std::function<void(const std::string&, const std::string&, std::size_t, std::size_t)>;

/// The resolved (workload x policy) matrix a config expands to — flat cell
/// index i = workload * policies.size() + policy, the index the engine, the
/// checkpoint journal and the reports all share.
struct CampaignPlan {
  std::vector<std::string> workloads;
  std::vector<Policy> policies;
  /// Replicate-group width after fault_replicates expansion: policies
  /// [g*stride, (g+1)*stride) are seed-replicates of one base policy.
  /// 1 when no expansion happened — every policy is its own group.
  std::size_t replicate_stride{1};
  [[nodiscard]] std::size_t total() const { return workloads.size() * policies.size(); }
};

[[nodiscard]] CampaignPlan plan_campaign(const CampaignConfig& config);

/// Deterministic post-pass computing per-cell savings vs each workload's
/// baseline policy (index 0).  Identical for any execution order, so
/// resumed and uninterrupted campaigns report byte-identical savings.
void finalize_campaign_savings(CampaignResult& result);

/// Run every cell of the config's plan.  Exactly run_campaign_checkpointed
/// (recovery.h) with checkpointing disabled.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config,
                                          const CampaignProgress& progress = {});

/// One row per run: workload, policy, metrics, savings.
void write_campaign_csv(std::ostream& os, const CampaignResult& result);

/// Full structured report (per-run metrics + per-policy aggregates).
void write_campaign_json(std::ostream& os, const CampaignResult& result);

/// Human-readable GitHub-flavoured markdown table: one row per workload,
/// one column per policy with energy saving and time delta vs the baseline.
void write_campaign_markdown(std::ostream& os, const CampaignResult& result);

}  // namespace gg::greengpu
