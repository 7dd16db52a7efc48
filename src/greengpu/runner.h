// Experiment runner: executes a workload on the simulated testbed under a
// policy and records everything the paper's figures report.  The testbed
// has one GPU, as the paper's does, or N identical cards: the application
// structure of Section VI ("one pthread for one GPU") with one stream per
// card, a share vector (the CPU first) and one WMA daemon per card.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cudalite/api.h"
#include "src/greengpu/division.h"
#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/workloads/workload.h"

namespace gg::greengpu {

/// Per-iteration measurements (the dots of Fig. 7 and Fig. 8).
struct IterationRecord {
  std::size_t index{0};
  /// CPU share this iteration executed with.
  double cpu_ratio{0.0};
  /// Per-side chunk completion times, measured from iteration start; with
  /// several GPUs, gpu_time is the slowest GPU slot's.
  Seconds cpu_time{0.0};
  Seconds gpu_time{0.0};
  /// Wall time of the whole iteration (including the merge step).
  Seconds duration{0.0};
  Joules gpu_energy{0.0};
  Joules cpu_energy{0.0};
  [[nodiscard]] Joules total_energy() const { return gpu_energy + cpu_energy; }
  /// DMA copy-engine activity within the iteration: time a transfer was in
  /// flight, and the part of it that ran concurrently with a kernel.  Both
  /// are zero for compute-only iterations; on the synchronous stack
  /// overlap stays zero (the host blocks, so the device FIFO is empty
  /// while the engine runs).
  Seconds copy_busy_time{0.0};
  Seconds overlap_time{0.0};
  /// Division decision taken after this iteration (if the tier is on).
  DivisionAction division_action{DivisionAction::kHold};
  /// Fault-layer events logged during this iteration (0 without injector).
  std::size_t fault_events{0};
  /// The iteration was affected by a reroute, exhausted retries, a watchdog
  /// trip, or a thermal-throttle episode — its times are non-informative.
  bool degraded{false};
};

struct ExperimentResult {
  std::string workload;
  std::string policy;
  Seconds exec_time{0.0};
  Joules gpu_energy{0.0};  // meter 2, all cards
  Joules cpu_energy{0.0};  // meter 1
  [[nodiscard]] Joules total_energy() const { return gpu_energy + cpu_energy; }
  /// GPU energy of each card.
  std::vector<Joules> per_gpu_energy;

  /// GPU idle power at the driver-default (lowest) clocks, summed over the
  /// cards; the "idle
  /// energy" term of the paper's dynamic-energy accounting is
  /// gpu_idle_power * exec_time.
  Watts gpu_idle_power{0.0};
  [[nodiscard]] Joules gpu_dynamic_energy() const {
    return gpu_energy - gpu_idle_power * exec_time;
  }

  /// CPU energy burnt busy-waiting on the GPU and the time spent doing so.
  Joules cpu_spin_energy{0.0};
  Seconds cpu_spin_time{0.0};
  /// Spin time creditable to the Fig. 6c emulation: the paper conservatively
  /// assumes the CPU cannot be throttled around GPU communications (kernel
  /// launching/ending), so a guard window per launch is excluded.
  Seconds cpu_credited_spin_time{0.0};
  Joules cpu_credited_spin_energy{0.0};
  /// CPU-side power of the spin loop priced at the lowest P-state.
  Watts cpu_spin_power_lowest{0.0};
  /// Fig. 6c emulation: total energy if the creditable spin phases had run
  /// at the lowest CPU frequency (Section VII-A's emulated scenario).
  [[nodiscard]] Joules emulated_cpu_throttle_energy() const {
    return total_energy() - cpu_credited_spin_energy +
           cpu_spin_power_lowest * cpu_credited_spin_time;
  }

  /// Division ratio (the CPU share) after the final iteration.
  double final_ratio{0.0};
  /// Share vector after the final iteration: the CPU first, then one entry
  /// per GPU.
  std::vector<double> final_shares;
  /// Iteration index after which the division controller first held its
  /// ratio twice in a row (size_t(-1) if it never converged).
  std::size_t convergence_iteration{static_cast<std::size_t>(-1)};

  bool verified{false};
  /// True when verification was not performed (disabled or truncated run).
  bool verify_skipped{false};
  /// Retained per-record logs.  How much is retained follows
  /// `RunOptions::record` (full for single runs, counters-only for
  /// campaigns); the *_count fields below are exact regardless of retention.
  std::vector<IterationRecord> iterations;
  std::vector<sim::TraceSample> trace;
  std::vector<ScalerDecision> scaler_decisions;
  std::vector<GovernorDecision> governor_decisions;
  /// Exact totals, independent of the retention mode; per-card counts are
  /// summed over the cards (scaler_decisions concatenates them card by card).
  std::size_t iteration_count{0};
  std::uint64_t scaler_decision_count{0};
  std::uint64_t governor_decision_count{0};
  /// Iterations whose division decision actually moved the ratio (!= hold).
  std::uint64_t division_moves{0};
  std::size_t fault_event_count{0};
  std::uint64_t gpu_frequency_transitions{0};
  /// Retained fault-event log (empty without an injector; truncated per
  /// `RunOptions::record` — fault_event_count holds the exact total).
  std::vector<sim::FaultEvent> fault_events;
  /// Iterations whose measurements were distorted by faults.
  std::size_t degraded_iterations{0};
  /// Times the per-iteration watchdog fired (hardened runs keep waiting up
  /// to eight trips, runner.cpp's kMaxWatchdogTrips; un-hardened runs throw).
  std::uint64_t watchdog_trips{0};
};

struct RunOptions {
  /// Defer fault-injector installation until the start of iteration K
  /// (0 = install before setup, the historical behaviour).  Lets fault-seed
  /// sweeps share a bit-identical fault-free warm-up prefix that the batch
  /// campaign engine memoizes; a no-op when no fault channel is active.
  std::size_t faults_active_from{0};
  /// Model-only execution (cudalite::ComputeMode::kModelOnly): skip the
  /// real kernel/host data computation and drive the simulation model
  /// alone.  Every simulated charge, fault draw and controller decision is
  /// bit-identical to a full run; only `verified` cannot be computed (data
  /// buffers are never written), so finish() reports verify_skipped.  The
  /// batch campaign engine memoizes one real verification per workload and
  /// patches the report instead.
  bool model_only{false};
  /// Record a periodic platform trace (Fig. 5).
  bool record_trace{false};
  Seconds trace_period{1.0};
  /// Check results against the workload's reference after the run.
  bool verify{true};
  /// Runners of the run's host pool (this thread plus pool_workers - 1
  /// threads; 0 = hardware concurrency), which executes the kernels, cut into
  /// min(N, 4 x pool_workers) chunks, and the verify() reference.
  std::size_t pool_workers{0};
  /// Override the workload's iteration count (0 = workload default).
  std::size_t max_iterations{0};
  /// Model the synchronous (spinning) CUDA stack; false models the
  /// asynchronous hypothetical of Section VII-A.
  bool sync_spin{true};
  /// Fault-injection configuration.  The injector is installed only when at
  /// least one rate/mtbf is non-zero, so the default is a strict no-op:
  /// joules and traces stay bit-identical to the fault-free build.
  sim::FaultConfig faults{};
  /// Retention policy for the per-record logs (iterations, scaler/governor
  /// decisions, fault events).  Pure telemetry — never
  /// feeds control, so joules/decisions are bit-identical across modes.
  /// Campaigns override this to counters-only (see campaign.h).
  RecordOptions record{};
  /// Standalone runs (run_experiment / ExperimentEngine::run) atomically
  /// rewrite `<checkpoint_dir>/<checkpoint_tag>.ggsn` with the
  /// ExperimentEngine::save_checkpoint payload (scaler weights, divider
  /// state, virtual time) every N iterations; 0 disables.  Campaign cells
  /// ignore these three fields: the batch engine writes one file per row at
  /// the CheckpointOptions cadence instead (recovery.h).  Checkpoints are
  /// pure observation — they never feed back into the run, so results are
  /// bit-identical at any cadence.
  std::size_t checkpoint_every{0};
  /// Directory for periodic checkpoints (must exist; empty disables).
  std::string checkpoint_dir;
  /// File stem of this run's checkpoint: `<dir>/<tag>.ggsn`.
  std::string checkpoint_tag{"run"};
};

/// Throwing failure mode of a run on a faulty platform: an un-hardened
/// policy whose iteration never completes (the DNF outcome the ablation
/// reports).
class ExperimentAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Run `workload` under `policy` on a fresh simulated testbed with
/// `gpu_count` identical GPUs.
[[nodiscard]] ExperimentResult run_experiment(workloads::Workload& workload,
                                              const Policy& policy,
                                              const RunOptions& options = {},
                                              std::size_t gpu_count = 1);

/// Convenience: construct-by-name, run, return.
[[nodiscard]] ExperimentResult run_experiment(const std::string& workload_name,
                                              const Policy& policy,
                                              const RunOptions& options = {},
                                              std::size_t gpu_count = 1);

/// Resumable form of run_experiment: the identical run decomposed into
/// start() / step_iteration() / finish() so callers can observe, snapshot
/// and fork a run at iteration boundaries.  run_experiment() is a thin
/// wrapper around run(); the batch campaign engine drives the pieces
/// directly (model-only cells, warm-up prefix forking).
///
/// The division tier is one `Divider` (division.h) of `Policy::divider`'s
/// kind over gpu_count + 1 shares, the CPU first, configured by
/// `params.division` (kEnergyModel with N >= 2 GPUs throws
/// std::invalid_argument); without division the CPU runs `fixed_ratio` and
/// GPU 0 the rest.  Snapshots (save_prefix, restore_prefix,
/// save_checkpoint) hold one record per card, so runs fork and resume at
/// any card count; a snapshot only restores into an engine with as many
/// cards.
class ExperimentEngine {
 public:
  /// Throws std::invalid_argument when `gpu_count` is 0.
  ExperimentEngine(workloads::Workload& workload, const Policy& policy,
                   const RunOptions& options = {}, std::size_t gpu_count = 1);
  ~ExperimentEngine();
  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Build platform/controllers, run workload setup, take the start-of-run
  /// energy snapshot.  Must be the first call.
  void start();
  /// Advance one iteration; requires start() and iteration() < total_iterations().
  void step_iteration();
  /// Iterations completed so far.
  [[nodiscard]] std::size_t iteration() const { return iter_; }
  /// Iterations this run will execute (valid after start()).
  [[nodiscard]] std::size_t total_iterations() const { return n_iters_; }
  /// Teardown + final accounting + verification; call once, after the last
  /// iteration.
  [[nodiscard]] ExperimentResult finish();
  /// start() + every iteration + finish(), i.e. exactly run_experiment(),
  /// including its `<checkpoint_tag>.ggsn` writes at the RunOptions cadence.
  [[nodiscard]] ExperimentResult run();

  /// Snapshot the entire run at the current iteration boundary: virtual
  /// clock, device integrals, monitoring windows, controller state, pending
  /// tick phases and partial accounting.  Legal only before the fault
  /// injector is installed (use RunOptions::faults_active_from to delay it)
  /// and without a trace recorder.  The run continues unperturbed after
  /// saving — observation only.
  void save_prefix(common::SnapshotWriter& w);
  /// Restore a save_prefix() snapshot into a freshly start()ed engine with
  /// the same workload/policy/options (late-binding knobs — fault seeds —
  /// may differ).  The engine jumps to the saved iteration boundary and
  /// continues bit-identically to a run that simulated the prefix itself.
  void restore_prefix(common::SnapshotReader& r);

  /// Append the controller checkpoint at the current iteration boundary:
  /// iterations completed, virtual time, card count, has-scaler/has-divider
  /// flags, then each card's scaler state and the divider state.
  /// Observation only; requires start().
  void save_checkpoint(common::SnapshotWriter& w) const;

  [[nodiscard]] sim::Platform& platform() { return *platform_; }
  /// The run's cudalite runtime (valid after start(); its counters survive
  /// finish()).
  [[nodiscard]] const cudalite::Runtime& runtime() const { return *rt_; }

 private:
  /// One card's monitoring/actuation handles and its scaling daemon.
  struct Card {
    std::unique_ptr<cudalite::NvmlDevice> nvml;
    std::unique_ptr<cudalite::NvSettings> settings;
    std::unique_ptr<GpuFrequencyScaler> scaler;  // null without gpu_scaling
  };

  void install_faults();
  /// Feed the iteration's slot times to the division tier; returns the
  /// decision label recorded with the iteration.
  DivisionAction divide(const IterationRecord& rec);

  workloads::Workload* workload_;
  const Policy* policy_;
  RunOptions options_;
  std::size_t gpu_count_;

  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<cudalite::Runtime> rt_;
  sim::FaultInjector* injector_{nullptr};
  std::vector<Card> cards_;
  std::unique_ptr<CpuGovernor> governor_;
  std::unique_ptr<Divider> divider_;  // null without division
  std::unique_ptr<sim::TraceRecorder> tracer_;
  std::vector<cudalite::Stream> streams_;  // one per card

  ExperimentResult result_;
  DecisionRecorder<IterationRecord> iteration_log_;
  std::size_t iter_{0};
  std::size_t n_iters_{0};
  /// Work shares of the next iteration: the CPU, then one per card.
  workloads::ShareVector shares_;
  /// Per-slot completion state of the iteration in flight.
  std::vector<Seconds> slot_times_;
  std::vector<bool> slot_done_;
  std::size_t slots_pending_{0};
  int watchdog_trips_left_{0};
  sim::EnergySnapshot run_start_;
  /// Each card's meter at run_start_, sized in start().
  std::vector<Joules> run_start_per_gpu_;
  double spin_time_start_{0.0};
  Joules spin_energy_start_{0.0};
  bool started_{false};
  bool finished_{false};
};

}  // namespace gg::greengpu
