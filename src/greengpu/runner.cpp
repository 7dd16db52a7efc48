#include "src/greengpu/runner.h"

#include <algorithm>

#include "src/common/snapshot.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/sim/platform.h"
#include "src/workloads/registry.h"

namespace gg::greengpu {

namespace {

void save_iteration_record(common::SnapshotWriter& w, const IterationRecord& rec) {
  w.u64(rec.index);
  w.f64(rec.cpu_ratio);
  w.f64(rec.cpu_time.get());
  w.f64(rec.gpu_time.get());
  w.f64(rec.duration.get());
  w.f64(rec.gpu_energy.get());
  w.f64(rec.cpu_energy.get());
  w.f64(rec.copy_busy_time.get());
  w.f64(rec.overlap_time.get());
  w.u8(static_cast<std::uint8_t>(rec.division_action));
  w.u64(rec.fault_events);
  w.b(rec.degraded);
}

IterationRecord load_iteration_record(common::SnapshotReader& r) {
  IterationRecord rec;
  rec.index = static_cast<std::size_t>(r.u64());
  rec.cpu_ratio = r.f64();
  rec.cpu_time = Seconds{r.f64()};
  rec.gpu_time = Seconds{r.f64()};
  rec.duration = Seconds{r.f64()};
  rec.gpu_energy = Joules{r.f64()};
  rec.cpu_energy = Joules{r.f64()};
  rec.copy_busy_time = Seconds{r.f64()};
  rec.overlap_time = Seconds{r.f64()};
  rec.division_action = static_cast<DivisionAction>(r.u8());
  rec.fault_events = static_cast<std::size_t>(r.u64());
  rec.degraded = r.b();
  return rec;
}

/// Absolute fire time of the k-th periodic tick (1-based), reproducing the
/// exact floating-point accumulation the self-rescheduling tick chain
/// performs (each tick schedules the next at fire_time + interval).
Seconds tick_time(Seconds interval, std::uint64_t k) {
  Seconds t{0.0};
  for (std::uint64_t i = 0; i < k; ++i) t = t + interval;
  return t;
}

}  // namespace

bool fault_events_degrade(const std::vector<sim::FaultEvent>& events, std::size_t first) {
  for (std::size_t i = first; i < events.size(); ++i) {
    switch (events[i].outcome) {
      case sim::FaultOutcome::kRerouted:
      case sim::FaultOutcome::kForcedCompletion:
      case sim::FaultOutcome::kRetriesExhausted:
      case sim::FaultOutcome::kWatchdogTrip:
      case sim::FaultOutcome::kThrottleStart:
        return true;
      default:
        break;
    }
  }
  return false;
}

std::vector<sim::FaultEvent> retained_fault_events(
    const std::vector<sim::FaultEvent>& events, const RecordOptions& record) {
  switch (record.mode) {
    case RecordMode::kFull:
      return events;
    case RecordMode::kRing: {
      const std::size_t keep = std::min(events.size(), record.ring_capacity);
      return {events.end() - static_cast<std::ptrdiff_t>(keep), events.end()};
    }
    case RecordMode::kCounters:
      break;
  }
  return {};
}

ExperimentEngine::ExperimentEngine(workloads::Workload& workload, const Policy& policy,
                                   const RunOptions& options)
    : workload_(&workload), policy_(&policy), options_(options),
      iteration_log_(options.record) {}

ExperimentEngine::~ExperimentEngine() = default;

void ExperimentEngine::install_faults() {
  injector_ = &platform_->install_faults(options_.faults);
}

void ExperimentEngine::start() {
  if (started_) throw std::logic_error("ExperimentEngine: start() called twice");
  started_ = true;

  platform_ = std::make_unique<sim::Platform>();  // testbed default: GPU at
                                                  // lowest clocks, CPU at peak
  rt_ = std::make_unique<cudalite::Runtime>(*platform_, options_.pool_workers,
                                            options_.sync_spin);
  if (options_.model_only) rt_->set_compute_mode(cudalite::ComputeMode::kModelOnly);

  // --- Fault layer ---------------------------------------------------------
  // Installed only when at least one channel is active, so the default run
  // is bit-identical to the fault-free build.  `faults_active_from` delays
  // the installation to an iteration boundary (fault-free warm-up prefix).
  if (options_.faults.any_faults() && options_.faults_active_from == 0) {
    install_faults();
  }
  const HardeningParams& hard = policy_->params.hardening;
  if (hard.enabled) {
    rt_->set_fault_tolerance(
        cudalite::FaultTolerance{hard.max_launch_retries, hard.reroute_failed_side});
  }

  // --- Frequency setup / tier 2 controllers --------------------------------
  nvml_ = std::make_unique<cudalite::NvmlDevice>(*platform_);
  settings_ = std::make_unique<cudalite::NvSettings>(*platform_);

  if (policy_->gpu_scaling) {
    // The paper's Fig. 5 runs start from the driver-default lowest clocks;
    // the platform already starts there.
    WmaParams wma = policy_->params.wma;
    if (hard.enabled) wma.harden = true;
    scaler_ = std::make_unique<GpuFrequencyScaler>(*nvml_, *settings_, wma);
    scaler_->set_record(options_.record);
    scaler_->attach(platform_->queue());
  } else if (policy_->fixed_gpu_levels) {
    settings_->set_clock_levels(policy_->fixed_gpu_levels->first,
                                policy_->fixed_gpu_levels->second);
  } else {
    settings_->set_clock_levels(0, 0);  // best-performance: both domains at peak
  }
  governor_ = make_cpu_governor(policy_->cpu_governor, *platform_,
                                policy_->params.ondemand);
  if (governor_) {
    governor_->set_record(options_.record);
    governor_->attach();
  }

  // --- Tier 1 --------------------------------------------------------------
  ratio_ = policy_->fixed_ratio;
  if (policy_->division && workload_->divisible()) {
    divider_ = make_divider(policy_->divider, policy_->params.division);
    divider_->set_record(options_.record);
    ratio_ = divider_->ratio();
  }
  if (!workload_->divisible()) ratio_ = 0.0;

  if (options_.record_trace) {
    tracer_ = std::make_unique<sim::TraceRecorder>(*platform_, options_.trace_period);
  }

  result_ = ExperimentResult{};
  result_.workload = std::string(workload_->name());
  result_.policy = policy_->name;
  result_.gpu_idle_power =
      platform_->gpu().idle_power(platform_->gpu().core_table().lowest_level(),
                                  platform_->gpu().mem_table().lowest_level());
  // In the emulated scenario the spin loops keep running, but at the lowest
  // P-state.
  result_.cpu_spin_power_lowest =
      platform_->cpu().power_at(platform_->cpu().table().lowest_level(), 1.0);

  workload_->setup(*rt_);
  stream_ = rt_->create_stream();

  n_iters_ = options_.max_iterations
                 ? std::min(options_.max_iterations, workload_->iterations())
                 : workload_->iterations();

  run_start_ = platform_->snapshot();
  spin_time_start_ = platform_->cpu().counters().spin_integral;
  spin_energy_start_ = platform_->cpu().spin_energy();

  watchdog_trips_left_ = hard.max_watchdog_trips;
  iter_ = 0;
}

void ExperimentEngine::save_checkpoint(common::SnapshotWriter& w) const {
  if (!started_) throw std::logic_error("ExperimentEngine: save_checkpoint() before start()");
  w.u64(iter_);
  w.f64(platform_->now().get());
  w.b(scaler_ != nullptr);
  w.b(divider_ != nullptr);
  if (scaler_) scaler_->save(w);
  if (divider_) divider_->save(w);
}

void ExperimentEngine::step_iteration() {
  if (!started_ || finished_) {
    throw std::logic_error("ExperimentEngine: step_iteration() outside a run");
  }
  if (iter_ >= n_iters_) {
    throw std::logic_error("ExperimentEngine: run already complete");
  }
  // Late fault activation: the injector joins at this iteration boundary
  // (the warm-up prefix up to here is bit-identical to a fault-free run).
  if (injector_ == nullptr && options_.faults.any_faults() &&
      options_.faults_active_from != 0 && iter_ == options_.faults_active_from) {
    install_faults();
  }
  const HardeningParams& hard = policy_->params.hardening;
  sim::Platform& platform = *platform_;
  cudalite::Runtime& rt = *rt_;
  const std::size_t iter = iter_;

  const sim::EnergySnapshot e0 = platform.snapshot();
  const sim::CopyEngineCounters ce0 = platform.copy_engine().counters();
  const Seconds t0 = platform.now();
  const std::size_t ev0 = injector_ ? injector_->events().size() : 0;
  const bool throttled_at_start = injector_ != nullptr && injector_->throttled(0);

  bool gpu_done = false;
  bool cpu_done = false;
  Seconds gpu_at = t0;
  Seconds cpu_at = t0;
  workload_->run_iteration(
      rt, *stream_, iter, ratio_,
      [&] {
        gpu_done = true;
        gpu_at = platform.now();
      },
      [&] {
        cpu_done = true;
        cpu_at = platform.now();
      });
  if (injector_ != nullptr && hard.watchdog_timeout > Seconds{0.0}) {
    // Watchdog: bound the simulated time spent waiting on the join.  A
    // rejected un-rerouted side never signals, and with a scaler attached
    // the queue never drains, so an un-watched wait would spin forever.
    while (!(gpu_done && cpu_done)) {
      bool fired = false;
      sim::EventHandle wd =
          platform.queue().schedule_in(hard.watchdog_timeout, [&] { fired = true; });
      rt.wait_until([&] { return (gpu_done && cpu_done) || fired; });
      wd.cancel();
      if (gpu_done && cpu_done) break;
      injector_->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kWatchdogTrip);
      ++result_.watchdog_trips;
      if (!hard.enabled || --watchdog_trips_left_ < 0) {
        throw ExperimentAborted("run_experiment: iteration " + std::to_string(iter) +
                                " stuck for " +
                                std::to_string(hard.watchdog_timeout.get()) +
                                " s (simulated) — watchdog abort");
      }
    }
  } else {
    rt.wait_until([&] { return gpu_done && cpu_done; });
  }
  workload_->finish_iteration(rt, iter);

  const sim::EnergySnapshot e1 = platform.snapshot();
  const sim::CopyEngineCounters ce1 = platform.copy_engine().counters();
  const sim::EnergyDelta d = sim::Platform::delta(e0, e1);

  IterationRecord rec;
  rec.index = iter;
  rec.cpu_ratio = ratio_;
  rec.cpu_time = cpu_at - t0;
  rec.gpu_time = gpu_at - t0;
  rec.duration = d.elapsed;
  rec.gpu_energy = d.gpu;
  rec.cpu_energy = d.cpu;
  rec.copy_busy_time = Seconds{ce1.busy_integral - ce0.busy_integral};
  rec.overlap_time = Seconds{ce1.overlap_integral - ce0.overlap_integral};

  if (injector_ != nullptr) {
    const auto& events = injector_->events();
    rec.fault_events = events.size() - ev0;
    rec.degraded = throttled_at_start || fault_events_degrade(events, ev0);
    if (rec.degraded) ++result_.degraded_iterations;
  }

  if (divider_) {
    IterationFeedback feedback{rec.cpu_time, rec.gpu_time, rec.total_energy()};
    // Only a hardened policy knows to distrust a faulted iteration; the
    // un-hardened baseline learns from the distorted times on purpose.
    feedback.degraded = hard.enabled && rec.degraded;
    const DivisionDecision decision = divider_->update(feedback);
    rec.division_action = decision.action;
    if (decision.action != DivisionAction::kHold) ++result_.division_moves;
    ratio_ = decision.ratio;
    if (divider_->converged() &&
        result_.convergence_iteration == static_cast<std::size_t>(-1)) {
      result_.convergence_iteration = iter;
    }
  }
  iteration_log_.push(rec);
  ++iter_;
}

ExperimentResult ExperimentEngine::finish() {
  if (!started_ || finished_) {
    throw std::logic_error("ExperimentEngine: finish() outside a run");
  }
  finished_ = true;
  sim::Platform& platform = *platform_;

  workload_->teardown(*rt_);

  const sim::EnergySnapshot run_end = platform.snapshot();
  const sim::EnergyDelta total = sim::Platform::delta(run_start_, run_end);
  result_.exec_time = total.elapsed;
  result_.gpu_energy = total.gpu;
  result_.cpu_energy = total.cpu;
  // Spin accounting over the measured window only (setup transfers spin too
  // but are excluded from exec_time).
  result_.cpu_spin_energy = platform.cpu().spin_energy() - spin_energy_start_;
  result_.cpu_spin_time =
      Seconds{platform.cpu().counters().spin_integral - spin_time_start_};
  // Conservative Fig. 6c accounting: one guard window per kernel launch is
  // treated as unthrottleable communication time.
  const Seconds guard = options_.emulation_guard_per_launch *
                        static_cast<double>(platform.gpu().kernels_completed());
  result_.cpu_credited_spin_time =
      std::max(Seconds{0.0}, result_.cpu_spin_time - guard);
  result_.cpu_credited_spin_energy =
      result_.cpu_spin_time > Seconds{0.0}
          ? result_.cpu_spin_energy *
                (result_.cpu_credited_spin_time / result_.cpu_spin_time)
          : Joules{0.0};
  result_.final_ratio = ratio_;
  result_.gpu_frequency_transitions = platform.gpu().frequency_transitions();

  result_.iteration_count = static_cast<std::size_t>(iteration_log_.total());
  result_.iterations = iteration_log_.take();

  if (scaler_) {
    scaler_->detach();
    result_.scaler_decision_count = scaler_->decision_count();
    result_.scaler_decisions = scaler_->decisions_snapshot();
  }
  if (governor_) {
    governor_->detach();
    result_.governor_decision_count = governor_->decision_count();
    result_.governor_decisions = governor_->decisions_snapshot();
  }
  if (tracer_) {
    tracer_->stop();
    result_.trace = tracer_->samples();
  }
  if (injector_ != nullptr) {
    result_.fault_event_count = injector_->events().size();
    result_.fault_events = retained_fault_events(injector_->events(), options_.record);
  }
  if (options_.model_only) {
    // Data buffers were never written; the caller owns verification (the
    // batch engine memoizes one real run per workload and patches this).
    result_.verify_skipped = true;
    result_.verified = false;
  } else {
    // A truncated run cannot be checked against the full-length reference.
    const bool can_verify = options_.verify && n_iters_ == workload_->iterations();
    result_.verify_skipped = !can_verify;
    result_.verified = can_verify ? workload_->verify() : true;
  }
  return std::move(result_);
}

ExperimentResult ExperimentEngine::run() {
  start();
  const std::size_t every = options_.checkpoint_dir.empty() ? 0 : options_.checkpoint_every;
  while (iter_ < n_iters_) {
    step_iteration();
    if (every != 0 && iter_ % every == 0) {
      common::SnapshotWriter ckpt;
      save_checkpoint(ckpt);
      ckpt.write_atomic(options_.checkpoint_dir + "/" + options_.checkpoint_tag + ".ggsn");
    }
  }
  return finish();
}

void ExperimentEngine::save_prefix(common::SnapshotWriter& w) {
  if (!started_ || finished_) {
    throw std::logic_error("ExperimentEngine: save_prefix() outside a run");
  }
  if (injector_ != nullptr) {
    throw common::SnapshotError(
        "ExperimentEngine::save_prefix: fault injector already active "
        "(set faults_active_from past the fork boundary)");
  }
  if (tracer_) {
    throw common::SnapshotError(
        "ExperimentEngine::save_prefix: trace recorder not supported");
  }
  w.u64(iter_);
  platform_->save(w);
  nvml_->save(w);
  w.b(scaler_ != nullptr);
  if (scaler_) scaler_->save(w);
  w.b(governor_ != nullptr);
  if (governor_) governor_->save(w);
  w.b(divider_ != nullptr);
  if (divider_) divider_->save(w);
  w.f64(ratio_);
  w.f64(run_start_.time.get());
  w.f64(run_start_.gpu.get());
  w.f64(run_start_.cpu.get());
  w.u64(run_start_.per_gpu.size());
  for (const Joules e : run_start_.per_gpu) w.f64(e.get());
  w.f64(spin_time_start_);
  w.f64(spin_energy_start_.get());
  w.u64(result_.convergence_iteration);
  w.u64(result_.degraded_iterations);
  w.u64(result_.watchdog_trips);
  w.u64(static_cast<std::uint64_t>(watchdog_trips_left_));
  iteration_log_.save(w, save_iteration_record);
}

void ExperimentEngine::restore_prefix(common::SnapshotReader& r) {
  if (!started_ || finished_ || iter_ != 0) {
    throw std::logic_error(
        "ExperimentEngine: restore_prefix() requires a freshly started run");
  }
  if (injector_ != nullptr) {
    throw common::SnapshotError(
        "ExperimentEngine::restore_prefix: fault injector already active");
  }
  if (tracer_) {
    throw common::SnapshotError(
        "ExperimentEngine::restore_prefix: trace recorder not supported");
  }
  // Cancel the ticks start() armed so the queue is drained for the clock
  // restore; they are re-armed below at the donor run's exact phase.
  if (scaler_) scaler_->detach();
  if (governor_) governor_->detach();

  iter_ = static_cast<std::size_t>(r.u64());
  if (iter_ > n_iters_) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: iteration beyond run");
  }
  platform_->load(r);
  nvml_->load(r);
  if (r.b() != (scaler_ != nullptr)) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: scaler mismatch");
  }
  if (scaler_) scaler_->load(r);
  if (r.b() != (governor_ != nullptr)) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: governor mismatch");
  }
  if (governor_) governor_->load(r);
  if (r.b() != (divider_ != nullptr)) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: divider mismatch");
  }
  if (divider_) divider_->load(r);
  ratio_ = r.f64();
  run_start_.time = Seconds{r.f64()};
  run_start_.gpu = Joules{r.f64()};
  run_start_.cpu = Joules{r.f64()};
  run_start_.per_gpu.clear();
  const std::uint64_t per_gpu = r.u64();
  for (std::uint64_t i = 0; i < per_gpu; ++i) run_start_.per_gpu.push_back(Joules{r.f64()});
  spin_time_start_ = r.f64();
  spin_energy_start_ = Joules{r.f64()};
  result_.convergence_iteration = static_cast<std::size_t>(r.u64());
  result_.degraded_iterations = static_cast<std::size_t>(r.u64());
  result_.watchdog_trips = r.u64();
  watchdog_trips_left_ = static_cast<int>(r.u64());
  iteration_log_.load(r, load_iteration_record);

  // Re-arm the periodic tick trains at the exact next fire instants the
  // donor run had pending.  Relative order matters only when both ticks
  // collide at the same instant; the one whose previous tick (re)scheduled
  // it earlier holds the smaller sequence number, with the scaler winning
  // ties (it attaches first and fires first at collisions).
  const bool have_scaler = scaler_ != nullptr;
  const bool have_governor = governor_ != nullptr;
  auto arm_scaler = [&] {
    scaler_->attach_at(platform_->queue(),
                       tick_time(scaler_->params().interval, scaler_->steps() + 1));
  };
  auto arm_governor = [&] {
    governor_->attach_at(tick_time(governor_->interval(), governor_->steps() + 1));
  };
  if (have_scaler && have_governor) {
    const Seconds scaler_scheduled =
        tick_time(scaler_->params().interval, scaler_->steps());
    const Seconds governor_scheduled =
        tick_time(governor_->interval(), governor_->steps());
    if (governor_scheduled < scaler_scheduled) {
      arm_governor();
      arm_scaler();
    } else {
      arm_scaler();
      arm_governor();
    }
  } else if (have_scaler) {
    arm_scaler();
  } else if (have_governor) {
    arm_governor();
  }
}

ExperimentResult run_experiment(workloads::Workload& workload, const Policy& policy,
                                const RunOptions& options) {
  ExperimentEngine engine(workload, policy, options);
  return engine.run();
}

ExperimentResult run_experiment(const std::string& workload_name, const Policy& policy,
                                const RunOptions& options) {
  auto wl = workloads::make_workload(workload_name);
  return run_experiment(*wl, policy, options);
}

}  // namespace gg::greengpu
