#include "src/greengpu/batch_engine.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/job_pool.h"
#include "src/common/snapshot.h"
#include "src/workloads/registry.h"

namespace gg::greengpu {

namespace {

/// Everything one live cell owns.  The engine holds pointers into the
/// workload, so the workload member is declared first — members destroy in
/// reverse declaration order, tearing the engine down before its workload.
struct CellState {
  std::size_t index{0};
  workloads::WorkloadPtr workload;
  RunOptions options;
  std::unique_ptr<ExperimentEngine> engine;
  /// This cell runs real kernels.  In a memoizing (kBatch) row it is the
  /// verify donor whose outcome the model-only cells copy.
  bool full_compute{false};
};

/// Lockstep stepper: one sweep advances every live cell by one iteration
/// until all cells run out.  Cells march down the iteration axis together
/// (the SoA orientation of the batch), over a contiguous pointer array.
/// Per-cell work inside the sweep is allocation-free — machine-checked by
/// greengpu-lint's batch-loop-alloc rule; the per-cell containers are built
/// by the caller before stepping begins.
GG_HOT_BATCH void step_lockstep(CellState* const* live, std::size_t n) {
  bool any = n > 0;
  while (any) {
    any = false;
    for (std::size_t k = 0; k < n; ++k) {
      ExperimentEngine& e = *live[k]->engine;
      if (e.iteration() < e.total_iterations()) {
        // GG_LINT_ALLOW(hot-alloc-transitive): step_iteration allocates only
        // on the watchdog-abort throw path (the diagnostic string of
        // ExperimentAborted); the per-iteration fast path is allocation-free
        // (PR 7 batch-equivalence bench).
        e.step_iteration();
        any = any || e.iteration() < e.total_iterations();
      }
    }
  }
}

}  // namespace

BatchCampaignEngine::BatchCampaignEngine(const CampaignPlan& plan,
                                         const RunOptions& options, std::size_t jobs,
                                         CampaignEngine engine)
    : plan_(&plan), options_(&options), jobs_(jobs), engine_(engine),
      done_(plan.total(), 0) {}

void BatchCampaignEngine::skip_completed(std::vector<char> done) {
  if (done.size() != plan_->total()) {
    throw std::invalid_argument("BatchCampaignEngine: skip_completed size mismatch");
  }
  done_ = std::move(done);
}

void BatchCampaignEngine::run(std::vector<CampaignCell>& cells, const Hooks& hooks) {
  const std::size_t policy_count = plan_->policies.size();
  const std::size_t total = plan_->total();
  if (cells.size() != total) {
    throw std::invalid_argument("BatchCampaignEngine: cells size mismatch");
  }
  if (total == 0) return;

  const std::size_t stride = plan_->replicate_stride == 0 ? 1 : plan_->replicate_stride;
  // kScalar rows are one cell wide and memoize nothing: each cell runs in
  // its own compute mode and verifies itself.
  const bool memoize = engine_ == CampaignEngine::kBatch;
  const std::size_t row_width = memoize ? policy_count : 1;
  // Verification strategy for a memoizing row's model-only cells (what a
  // self-verifying cell would report, reproduced exactly):
  //   * base model_only: a self-verifying cell reports verified=false /
  //     skipped=true — the raw model-only result already says that; no patch.
  //   * verify off: a self-verifying cell reports verified=true /
  //     skipped=true; patch that.
  //   * verify on: one full-compute donor per row; patch its
  //     (verified, verify_skipped) pair — truncated runs (max_iterations)
  //     flow through the donor as verified=true / skipped=true, exactly as
  //     self-verifying cells would report themselves.
  const bool base_model_only = options_->model_only;
  const bool need_verify = options_->verify && !base_model_only;
  // Warm-up prefix forking engages per replicate group when the group's
  // cells differ only in their late-binding fault seed: the injector joins
  // at iteration W > 0, so iterations 0..W-1 are bit-identical across the
  // group and are simulated once.  save_prefix rejects trace recorders, so
  // traced runs fall back to cold starts.
  const std::size_t warmup = options_->faults_active_from;
  const bool forking = memoize && stride > 1 && warmup > 0 &&
                       options_->faults.any_faults() && !options_->record_trace;

  stats_ = Stats{};
  std::mutex stats_mutex;

  common::JobPool pool(jobs_);
  pool.run_batches(total, row_width, [&](std::size_t first, std::size_t last) {
    const std::size_t w = first / policy_count;
    Stats row;

    // Materialize the row's pending cells in flat-index order.  Options are
    // finalized (seed fork, then the caller's customize hook) before the
    // engine is constructed, because ExperimentEngine copies them.
    std::vector<std::unique_ptr<CellState>> states;
    states.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      if (done_[i]) continue;
      auto s = std::make_unique<CellState>();
      s->index = i;
      s->options = *options_;
      if (s->options.faults.any_faults()) {
        s->options.faults.seed = campaign_cell_seed(s->options.faults.seed, i);
      }
      if (hooks.customize) hooks.customize(i, s->options);
      if (memoize) {
        s->full_compute = need_verify && states.empty();
        s->options.model_only = !s->full_compute;
      } else {
        s->full_compute = !base_model_only;
      }
      s->workload = workloads::make_workload(plan_->workloads[w]);
      s->engine = std::make_unique<ExperimentEngine>(
          *s->workload, plan_->policies[s->index % policy_count], s->options);
      states.push_back(std::move(s));
    }
    if (states.empty()) return;

    // Start every cell; within a forkable replicate group, the group's
    // first pending cell simulates the shared warm-up once, snapshots it,
    // and the rest restore from the snapshot at iteration W.
    std::size_t k = 0;
    while (k < states.size()) {
      // The replicate group of states[k]: pending cells with the same
      // (workload row, policy-group) coordinates.
      const std::size_t group = (states[k]->index - first) / stride;
      std::size_t group_end = k + 1;
      while (group_end < states.size() &&
             (states[group_end]->index - first) / stride == group) {
        ++group_end;
      }
      states[k]->engine->start();
      if (forking && group_end - k > 1) {
        ExperimentEngine& donor = *states[k]->engine;
        const std::size_t fork_at = std::min(warmup, donor.total_iterations());
        while (donor.iteration() < fork_at) donor.step_iteration();
        common::SnapshotWriter prefix;
        donor.save_prefix(prefix);
        const std::string context = "warm-up prefix of " + plan_->workloads[w] +
                                    " group " + std::to_string(group);
        for (std::size_t m = k + 1; m < group_end; ++m) {
          states[m]->engine->start();
          auto reader = common::SnapshotReader::from_payload(prefix.payload(), context);
          states[m]->engine->restore_prefix(reader);
          ++row.forked_cells;
          row.prefix_iterations_saved += fork_at;
        }
      } else {
        for (std::size_t m = k + 1; m < group_end; ++m) states[m]->engine->start();
      }
      k = group_end;
    }

    // Lockstep over the whole row: contiguous pointer array, one iteration
    // per live cell per sweep.  Fork donors enter already at iteration W;
    // the stepper only advances cells that still have iterations left.
    std::vector<CellState*> live;
    live.reserve(states.size());
    for (const auto& s : states) live.push_back(s.get());
    step_lockstep(live.data(), live.size());

    // Finish and publish in flat-index order: the verify donor is the
    // lowest pending index, so its memo is set before any model cell needs
    // the patch.
    bool memo_verified = false;
    bool memo_skipped = false;
    for (auto& s : states) {
      ExperimentResult result = s->engine->finish();
      if (s->full_compute) {
        memo_verified = result.verified;
        memo_skipped = result.verify_skipped;
        ++row.full_runs;
      } else {
        ++row.model_runs;
        if (memoize && !base_model_only) {
          result.verified = need_verify ? memo_verified : true;
          result.verify_skipped = need_verify ? memo_skipped : true;
        }
      }
      cells[s->index].result = std::move(result);
      if (hooks.on_done) hooks.on_done(s->index, cells[s->index].result);
    }

    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_.full_runs += row.full_runs;
    stats_.model_runs += row.model_runs;
    stats_.forked_cells += row.forked_cells;
    stats_.prefix_iterations_saved += row.prefix_iterations_saved;
  });
}

}  // namespace gg::greengpu
