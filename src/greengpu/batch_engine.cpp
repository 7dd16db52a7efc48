#include "src/greengpu/batch_engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
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
  /// Latest controller checkpoint (ExperimentEngine::save_checkpoint) and
  /// the cadence boundary it was taken at; 0 = none yet.
  common::SnapshotWriter checkpoint;
  std::size_t checkpoint_at{0};
};

/// One workload row's verify reference for one run() call: invalid until a
/// cell claims it, freed once the row's last pending cell is published.
struct ReferenceSlot {
  std::mutex mutex;
  std::shared_future<workloads::Reference> reference;
  std::size_t unpublished{0};
};

/// Refresh `s`'s record at its current iteration boundary.
void take_checkpoint(CellState& s) {
  s.checkpoint = common::SnapshotWriter{};
  s.engine->save_checkpoint(s.checkpoint);
  s.checkpoint_at = s.engine->iteration();
}

/// The row checkpoint frame: the latest record of every cell that has one,
/// in flat-index order.  `carried` holds records an earlier run left for
/// cells this run skips (journaled on resume).
///   [u64 n] then n x ([u64 cell index][u64 length][save_checkpoint payload])
void save_row_checkpoint(common::SnapshotWriter& w,
                         const std::vector<std::unique_ptr<CellState>>& states,
                         const std::map<std::size_t, std::string>& carried) {
  std::map<std::size_t, std::string_view> records(carried.begin(), carried.end());
  for (const auto& s : states) {
    if (s->checkpoint_at == 0) continue;
    const std::vector<std::uint8_t>& payload = s->checkpoint.payload();
    records.emplace(s->index, std::string_view(reinterpret_cast<const char*>(payload.data()),
                                               payload.size()));
  }
  w.u64(records.size());
  for (const auto& [index, record] : records) {
    w.u64(index);
    w.str(record);
  }
}

/// The records an earlier run's row file holds for cells marked in `done`;
/// none if the file was never written.
std::map<std::size_t, std::string> load_row_checkpoint(const std::string& path,
                                                       const std::vector<char>& done) {
  std::map<std::size_t, std::string> records;
  if (!std::filesystem::exists(path)) return records;
  common::SnapshotReader r = common::SnapshotReader::from_file(path);
  const std::uint64_t n = r.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto index = static_cast<std::size_t>(r.u64());
    std::string record = r.str();
    if (index < done.size() && done[index] != 0) records.emplace(index, std::move(record));
  }
  r.expect_done();
  return records;
}

/// Lockstep stepper: one sweep advances every live cell by one iteration
/// until each cell reaches `until` or runs out.  Cells march down the
/// iteration axis together (the SoA orientation of the batch), over a
/// contiguous pointer array.  Per-cell work inside the sweep is
/// allocation-free — machine-checked by greengpu-lint's batch-loop-alloc
/// rule; the per-cell containers are built by the caller before stepping
/// begins, and checkpoint I/O happens between calls.
GG_HOT_BATCH void step_lockstep(CellState* const* live, std::size_t n, std::size_t until) {
  bool any = n > 0;
  while (any) {
    any = false;
    for (std::size_t k = 0; k < n; ++k) {
      ExperimentEngine& e = *live[k]->engine;
      const std::size_t stop = std::min(until, e.total_iterations());
      if (e.iteration() < stop) {
        // GG_LINT_ALLOW(hot-alloc-transitive): step_iteration allocates only
        // on the watchdog-abort throw path (the diagnostic string of
        // ExperimentAborted); the per-iteration fast path is allocation-free
        // (PR 7 batch-equivalence bench).
        e.step_iteration();
        any = any || e.iteration() < stop;
      }
    }
  }
}

}  // namespace

BatchCampaignEngine::BatchCampaignEngine(const CampaignPlan& plan,
                                         const RunOptions& options, std::size_t jobs,
                                         CampaignEngine engine, CheckpointOptions checkpoint)
    : plan_(&plan), options_(&options), jobs_(jobs), engine_(engine),
      checkpoint_(std::move(checkpoint)), done_(plan.total(), 0) {}

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
  // Controller checkpoints: each cell's record is refreshed at every
  // multiple of `every` it reaches, and the row rewrites one file holding
  // the latest record of each of its cells.  Without a cadence the row is
  // one chunk that never reaches a boundary.
  const bool checkpointing = checkpoint_.enabled() && checkpoint_.every != 0;
  const std::size_t every =
      checkpointing ? checkpoint_.every : std::numeric_limits<std::size_t>::max();

  stats_ = Stats{};
  std::mutex stats_mutex;
  std::vector<ReferenceSlot> slots(plan_->workloads.size());
  for (std::size_t i = 0; i < total; ++i) slots[i / policy_count].unpublished += !done_[i];

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

    // A resumed run keeps the records its predecessor wrote for the row's
    // journaled cells, which it does not re-run.
    const std::string row_path = checkpoint_.dir + "/row-" + std::to_string(first) + ".ggsn";
    const bool row_has_done = std::any_of(done_.begin() + static_cast<std::ptrdiff_t>(first),
                                          done_.begin() + static_cast<std::ptrdiff_t>(last),
                                          [](char d) { return d != 0; });
    const std::map<std::size_t, std::string> carried =
        checkpointing && row_has_done ? load_row_checkpoint(row_path, done_)
                                      : std::map<std::size_t, std::string>{};
    bool row_dirty = false;
    const auto write_row = [&] {
      if (!row_dirty) return;
      common::SnapshotWriter frame;
      save_row_checkpoint(frame, states, carried);
      frame.write_atomic(row_path);
      row_dirty = false;
    };

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
        while (donor.iteration() < fork_at) {
          donor.step_iteration();
          if (donor.iteration() % every == 0) {
            take_checkpoint(*states[k]);
            row_dirty = true;
          }
        }
        common::SnapshotWriter prefix;
        donor.save_prefix(prefix);
        const std::string context = "warm-up prefix of " + plan_->workloads[w] +
                                    " group " + std::to_string(group);
        for (std::size_t m = k + 1; m < group_end; ++m) {
          states[m]->engine->start();
          auto reader = common::SnapshotReader::from_payload(prefix.payload(), context);
          states[m]->engine->restore_prefix(reader);
          // The warm-up is bit-identical across the group, so the donor's
          // warm-up record is each replicate's own.
          states[m]->checkpoint = states[k]->checkpoint;
          states[m]->checkpoint_at = states[k]->checkpoint_at;
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
    // The row steps in cadence-sized chunks and writes its file after every
    // chunk in which a cell reached the boundary; the first chunk's write
    // also flushes the warm-up records of fork donors and their replicates.
    std::vector<CellState*> live;
    live.reserve(states.size());
    for (const auto& s : states) live.push_back(s.get());
    const auto pending = [](const CellState* s) {
      return s->engine->iteration() < s->engine->total_iterations();
    };
    for (std::size_t until = every;; until += every) {
      step_lockstep(live.data(), live.size(), until);
      for (CellState* s : live) {
        if (s->engine->iteration() == until && s->checkpoint_at != until) {
          take_checkpoint(*s);
          row_dirty = true;
        }
      }
      write_row();
      if (std::none_of(live.begin(), live.end(), pending)) break;
    }

    // Finish and publish in flat-index order: the verify donor is the
    // lowest pending index, so its memo is set before any model cell needs
    // the patch.  The first of a workload's cells to verify computes the
    // reference on its own runtime pool; the others wait for it here, on
    // campaign workers.  The computing cell needs no campaign worker, so the
    // wait cannot deadlock, and the future hands an exception in the
    // reference to every waiter.
    ReferenceSlot& slot = slots[w];
    bool memo_verified = false;
    bool memo_skipped = false;
    for (auto& s : states) {
      ExperimentResult result = s->engine->finish([&](common::JobPool& rt_pool) {
        std::packaged_task<workloads::Reference()> task(
            [&] { return s->workload->reference(rt_pool); });
        const std::shared_future<workloads::Reference> claimed = task.get_future().share();
        {
          std::lock_guard<std::mutex> lock(slot.mutex);
          if (slot.reference.valid()) return slot.reference;
          slot.reference = claimed;
        }
        ++row.references;
        task();
        return claimed;
      });
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
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (--slot.unpublished == 0) slot.reference = {};
    }

    std::lock_guard<std::mutex> lock(stats_mutex);
    stats_.full_runs += row.full_runs;
    stats_.model_runs += row.model_runs;
    stats_.forked_cells += row.forked_cells;
    stats_.prefix_iterations_saved += row.prefix_iterations_saved;
    stats_.references += row.references;
  });
}

}  // namespace gg::greengpu
