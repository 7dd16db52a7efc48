// Batched SoA campaign engine: the one code path that runs campaign cells.
//
// A campaign cell is one (workload, policy) simulation.  The work unit
// handed to a worker is a row of cells, and its width comes from the
// CampaignEngine:
//
//   * kBatch: a whole workload row (policy_count cells).  Most per-cell work
//     is redundant, so the row memoizes it:
//       - Real kernel computation only matters for `verified` — the
//         simulated energies/times are pure functions of the model
//         (cudalite's ComputeMode::kModelOnly contract).  The row runs ONE
//         full-compute cell (the verify donor), executes every other cell
//         model-only (~1000x cheaper), and patches their reports with the
//         memoized verification outcome.
//       - Fault-seed replicates (CampaignConfig::fault_replicates with
//         RunOptions::faults_active_from = W) share a bit-identical
//         fault-free warm-up prefix.  The row simulates the prefix once per
//         replicate group, snapshots it with ExperimentEngine::save_prefix,
//         and forks the remaining replicates from the snapshot instead of
//         re-simulating iterations 0..W-1.
//   * kScalar: a one-cell row.  No memo and no fork: every cell keeps its
//     own compute mode and verification, exactly as run_experiment() runs
//     it — the full-compute reference the identity tests hold kBatch to.
//
// Memo and prefix snapshots are worker-local row state, so reports stay
// byte-identical for any --jobs value.  Within a row the live cells step in
// lockstep over contiguous state (the GG_HOT_BATCH stepper), and results
// publish in flat-index order.
//
// With a checkpoint cadence (CheckpointOptions::every), a row steps in
// cadence-sized chunks and, after each chunk in which a cell reached a
// multiple of `every`, atomically rewrites one file,
// `<dir>/row-<first flat index>.ggsn`, holding the latest
// ExperimentEngine::save_checkpoint record of each of its cells (layout in
// docs/RECOVERY.md).  A kScalar row is one cell, so it writes one file per
// cell.  A row with cells marked by skip_completed reads its earlier file
// back once and keeps those cells' records in every rewrite.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"

namespace gg::greengpu {

class BatchCampaignEngine {
 public:
  struct Hooks {
    /// Adjust a cell's RunOptions after the engine applied the per-cell
    /// fault-seed fork but before the cell starts; also marks the start of
    /// a cell's work (perfbench opens its per-row trace spans here).
    /// Must not change anything that breaks the warm-up-sharing contract
    /// (model_only, faults_active_from, fault rates).
    std::function<void(std::size_t, RunOptions&)> customize;
    /// A cell's result is final.  Within one workload row, fires in
    /// flat-index order; rows may interleave under --jobs > 1.  The cell's
    /// slot in `cells` is already written when this fires.
    std::function<void(std::size_t, const ExperimentResult&)> on_done;
  };

  /// What the batching actually saved — the bench reports these.
  struct Stats {
    /// Cells that ran with real kernel computation (under kBatch, one verify
    /// donor per workload row that needed verification).
    std::size_t full_runs{0};
    /// Cells that ran model-only (under kBatch, with a patched verification
    /// outcome).
    std::size_t model_runs{0};
    /// Cells started from a memoized warm-up prefix snapshot.
    std::size_t forked_cells{0};
    /// Warm-up iterations those forks did not have to re-simulate.
    std::size_t prefix_iterations_saved{0};
    /// Verify references computed, one per workload row that verifies: its
    /// cells share it (a scalar row's policy cells; a batch row's donor).
    std::size_t references{0};
  };

  /// `plan` and `options` must outlive the engine.  `jobs` as in
  /// CampaignConfig::jobs (0 = hardware concurrency); parallelism is across
  /// rows, whose width `engine` selects (whole workload rows by default).
  /// `checkpoint.dir` (which must exist) and `checkpoint.every` set the
  /// row-file cadence; `resume` is the caller's business (skip_completed).
  BatchCampaignEngine(const CampaignPlan& plan, const RunOptions& options,
                      std::size_t jobs, CampaignEngine engine = CampaignEngine::kBatch,
                      CheckpointOptions checkpoint = {});

  /// Resume support: mark cells whose results are already known (journal
  /// replay).  Skipped cells are neither run nor published; `done` must have
  /// plan.total() entries.
  void skip_completed(std::vector<char> done);

  /// Run every non-skipped cell, writing results into cells[i] (which must
  /// have plan.total() entries).  Byte-identical for either engine and any
  /// jobs value.
  void run(std::vector<CampaignCell>& cells, const Hooks& hooks = {});

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  const CampaignPlan* plan_;
  const RunOptions* options_;
  std::size_t jobs_;
  CampaignEngine engine_;
  CheckpointOptions checkpoint_;
  std::vector<char> done_;
  Stats stats_;
};

}  // namespace gg::greengpu
