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

/// Guard window excluded from the Fig. 6c emulation around every kernel
/// launch (the paper's "cannot throttle while communicating" assumption).
constexpr Seconds kEmulationGuardPerLaunch{0.5};

/// The watchdog's simulated-time budget for one iteration while a fault
/// injector is installed, and the trips after which a hardened run gives
/// up (throws).
constexpr Seconds kWatchdogTimeout{300.0};
constexpr int kMaxWatchdogTrips = 8;

/// True when an event logged at index `first` or later distorts the
/// iteration's measurements: a reroute, forced completion, exhausted
/// retries, watchdog trip or throttle onset.  Allocation-free.
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

/// The tail of a run's fault-event log that `record` retains.
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

}  // namespace

ExperimentEngine::ExperimentEngine(workloads::Workload& workload, const Policy& policy,
                                   const RunOptions& options, std::size_t gpu_count)
    : workload_(&workload), policy_(&policy), options_(options), gpu_count_(gpu_count),
      iteration_log_(options.record) {
  if (gpu_count == 0) throw std::invalid_argument("ExperimentEngine: gpu_count == 0");
}

ExperimentEngine::~ExperimentEngine() = default;

void ExperimentEngine::install_faults() {
  injector_ = &platform_->install_faults(options_.faults);
}

void ExperimentEngine::start() {
  if (started_) throw std::logic_error("ExperimentEngine: start() called twice");
  started_ = true;

  // Testbed default: GPUs at lowest clocks, CPU at peak.
  platform_ = std::make_unique<sim::Platform>(gpu_count_);
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
  // Hardened: bounded re-tries of a failed kernel launch or host chunk, and
  // rerouting a permanently failed slot's item range to a surviving slot.
  const bool hardened = policy_->params.hardened;
  rt_->set_hardened(hardened);

  // --- Frequency setup / tier 2 controllers, card by card ------------------
  cards_.resize(gpu_count_);
  for (std::size_t g = 0; g < gpu_count_; ++g) {
    Card& card = cards_[g];
    card.nvml = std::make_unique<cudalite::NvmlDevice>(*platform_, g);
    card.settings = std::make_unique<cudalite::NvSettings>(*platform_, g);
    if (policy_->gpu_scaling) {
      // The paper's Fig. 5 runs start from the driver-default lowest clocks;
      // the platform already starts there.
      card.scaler = std::make_unique<GpuFrequencyScaler>(*card.nvml, *card.settings,
                                                         policy_->params.wma, hardened);
      card.scaler->set_record(options_.record);
      card.scaler->attach(platform_->queue());
    } else if (policy_->fixed_gpu_levels) {
      card.settings->set_clock_levels(policy_->fixed_gpu_levels->first,
                                      policy_->fixed_gpu_levels->second);
    } else {
      card.settings->set_clock_levels(0, 0);  // best-performance: both domains at peak
    }
  }
  governor_ = make_cpu_governor(policy_->cpu_governor, *platform_);
  if (governor_) {
    governor_->set_record(options_.record);
    governor_->attach();
  }

  // --- Tier 1 --------------------------------------------------------------
  // Without division the CPU runs the fixed share and GPU 0 the rest.
  const std::size_t slots = gpu_count_ + 1;
  if (policy_->division && workload_->divisible()) {
    divider_ = make_divider(policy_->divider, slots, policy_->params.division);
    shares_ = divider_->shares();
  } else {
    shares_.assign(slots, 0.0);
    shares_[0] = workload_->divisible() ? policy_->fixed_ratio : 0.0;
    shares_[1] = 1.0 - shares_[0];
  }
  slot_times_.assign(slots, Seconds{0.0});
  slot_done_.assign(slots, false);

  if (options_.record_trace) {
    tracer_ = std::make_unique<sim::TraceRecorder>(*platform_, options_.trace_period);
  }

  result_ = ExperimentResult{};
  result_.workload = std::string(workload_->name());
  result_.policy = policy_->name;
  for (std::size_t g = 0; g < gpu_count_; ++g) {
    const sim::GpuDevice& gpu = platform_->gpu(g);
    result_.gpu_idle_power +=
        gpu.idle_power(gpu.core_table().lowest_level(), gpu.mem_table().lowest_level());
  }
  // In the emulated scenario the spin loops keep running, but at the lowest
  // P-state.
  result_.cpu_spin_power_lowest =
      platform_->cpu().power_at(platform_->cpu().table().lowest_level(), 1.0);

  workload_->setup(*rt_);
  for (std::size_t g = 0; g < gpu_count_; ++g) {
    rt_->set_device(g);
    streams_.push_back(rt_->create_stream());
  }
  rt_->set_device(0);

  n_iters_ = options_.max_iterations
                 ? std::min(options_.max_iterations, workload_->iterations())
                 : workload_->iterations();

  run_start_ = platform_->snapshot();
  run_start_per_gpu_.resize(gpu_count_);
  for (std::size_t g = 0; g < gpu_count_; ++g) {
    run_start_per_gpu_[g] = platform_->gpu(g).energy();
  }
  spin_time_start_ = platform_->cpu().counters().spin_integral;
  spin_energy_start_ = platform_->cpu().spin_energy();

  watchdog_trips_left_ = kMaxWatchdogTrips;
  iter_ = 0;
}

void ExperimentEngine::save_checkpoint(common::SnapshotWriter& w) const {
  if (!started_) throw std::logic_error("ExperimentEngine: save_checkpoint() before start()");
  w.u64(iter_);
  w.f64(platform_->now().get());
  w.u64(cards_.size());
  w.b(policy_->gpu_scaling);
  w.b(divider_ != nullptr);
  for (const Card& card : cards_) {
    if (card.scaler) card.scaler->save(w);
  }
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
  sim::Platform& platform = *platform_;
  cudalite::Runtime& rt = *rt_;
  const std::size_t iter = iter_;

  const sim::EnergySnapshot e0 = platform.snapshot();
  // Only GPU 0's copy engine: ProfiledWorkload iterations move no data, and
  // the pipeline workloads and merge steps run on GPU 0.
  const sim::CopyEngineCounters ce0 = platform.copy_engine().counters();
  const Seconds t0 = platform.now();
  const std::size_t ev0 = injector_ ? injector_->events().size() : 0;
  bool throttled_at_start = false;
  for (std::size_t g = 0; injector_ != nullptr && g < gpu_count_; ++g) {
    throttled_at_start = throttled_at_start || injector_->throttled(g);
  }

  // slot_times_ holds each slot's completion instant until the join, then
  // its time from the iteration start.
  std::fill(slot_done_.begin(), slot_done_.end(), false);
  std::fill(slot_times_.begin(), slot_times_.end(), t0);
  slots_pending_ = slot_done_.size();
  workload_->run_iteration(rt, streams_, iter, shares_, [this](std::size_t slot) {
    if (!slot_done_[slot]) {
      slot_done_[slot] = true;
      slot_times_[slot] = platform_->now();
      --slots_pending_;
    }
  });
  if (injector_ != nullptr) {
    // Watchdog: bound the simulated time spent waiting on the join.  A
    // rejected un-rerouted slot never signals, and with a scaler attached
    // the queue never drains, so an un-watched wait would spin forever.
    while (slots_pending_ != 0) {
      bool fired = false;
      sim::EventHandle wd =
          platform.queue().schedule_in(kWatchdogTimeout, [&] { fired = true; });
      rt.wait_until([&] { return slots_pending_ == 0 || fired; });
      wd.cancel();
      if (slots_pending_ == 0) break;
      injector_->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kWatchdogTrip);
      ++result_.watchdog_trips;
      if (!policy_->params.hardened || --watchdog_trips_left_ < 0) {
        throw ExperimentAborted("run_experiment: iteration " + std::to_string(iter) +
                                " stuck for " +
                                std::to_string(kWatchdogTimeout.get()) +
                                " s (simulated) — watchdog abort");
      }
    }
  } else {
    rt.wait_until([this] { return slots_pending_ == 0; });
  }
  workload_->finish_iteration(rt, iter);

  const sim::EnergySnapshot e1 = platform.snapshot();
  const sim::CopyEngineCounters ce1 = platform.copy_engine().counters();
  const sim::EnergyDelta d = sim::Platform::delta(e0, e1);

  for (Seconds& t : slot_times_) t = t - t0;
  IterationRecord rec;
  rec.index = iter;
  rec.cpu_ratio = shares_[0];
  rec.cpu_time = slot_times_[0];
  rec.gpu_time = *std::max_element(slot_times_.begin() + 1, slot_times_.end());
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

  rec.division_action = divide(rec);
  iteration_log_.push(rec);
  ++iter_;
}

DivisionAction ExperimentEngine::divide(const IterationRecord& rec) {
  if (!divider_) return DivisionAction::kHold;
  // Only a hardened policy knows to distrust a faulted iteration; the
  // un-hardened baseline learns from the distorted times on purpose.
  const bool degraded = policy_->params.hardened && rec.degraded;
  const DivisionAction action = divider_->update(slot_times_, rec.total_energy(), degraded);
  shares_ = divider_->shares();  // same size: no allocation
  if (action != DivisionAction::kHold) ++result_.division_moves;
  if (divider_->converged() &&
      result_.convergence_iteration == static_cast<std::size_t>(-1)) {
    result_.convergence_iteration = rec.index;
  }
  return action;
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
  std::uint64_t kernels_completed = 0;
  for (std::size_t g = 0; g < gpu_count_; ++g) {
    result_.per_gpu_energy.push_back(platform.gpu(g).energy() - run_start_per_gpu_[g]);
    kernels_completed += platform.gpu(g).kernels_completed();
    result_.gpu_frequency_transitions += platform.gpu(g).frequency_transitions();
  }
  // Spin accounting over the measured window only (setup transfers spin too
  // but are excluded from exec_time).
  result_.cpu_spin_energy = platform.cpu().spin_energy() - spin_energy_start_;
  result_.cpu_spin_time =
      Seconds{platform.cpu().counters().spin_integral - spin_time_start_};
  // Conservative Fig. 6c accounting: one guard window per kernel launch is
  // treated as unthrottleable communication time.
  const Seconds guard = kEmulationGuardPerLaunch * static_cast<double>(kernels_completed);
  result_.cpu_credited_spin_time =
      std::max(Seconds{0.0}, result_.cpu_spin_time - guard);
  result_.cpu_credited_spin_energy =
      result_.cpu_spin_time > Seconds{0.0}
          ? result_.cpu_spin_energy *
                (result_.cpu_credited_spin_time / result_.cpu_spin_time)
          : Joules{0.0};
  result_.final_ratio = shares_[0];
  result_.final_shares = shares_;

  result_.iteration_count = static_cast<std::size_t>(iteration_log_.total());
  result_.iterations = iteration_log_.take();

  for (Card& card : cards_) {
    if (!card.scaler) continue;
    card.scaler->detach();
    result_.scaler_decision_count += card.scaler->decision_count();
    const std::vector<ScalerDecision> decisions = card.scaler->decisions_snapshot();
    result_.scaler_decisions.insert(result_.scaler_decisions.end(), decisions.begin(),
                                    decisions.end());
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
    result_.verified = can_verify ? workload_->verify(rt_->pool()) : true;
  }
  return std::move(result_);
}

ExperimentResult ExperimentEngine::run() {
  const std::size_t every = options_.checkpoint_dir.empty() ? 0 : options_.checkpoint_every;
  start();
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
  w.b(policy_->gpu_scaling);
  for (const Card& card : cards_) {
    card.nvml->save(w);
    if (card.scaler) card.scaler->save(w);
  }
  w.b(governor_ != nullptr);
  if (governor_) governor_->save(w);
  w.b(divider_ != nullptr);
  if (divider_) divider_->save(w);
  w.f64(run_start_.time.get());
  w.f64(run_start_.gpu.get());
  w.f64(run_start_.cpu.get());
  w.u64(run_start_per_gpu_.size());
  for (const Joules e : run_start_per_gpu_) w.f64(e.get());
  w.f64(spin_time_start_);
  w.f64(spin_energy_start_.get());
  w.u64(result_.convergence_iteration);
  w.u64(result_.division_moves);
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
  for (Card& card : cards_) {
    if (card.scaler) card.scaler->detach();
  }
  if (governor_) governor_->detach();

  iter_ = static_cast<std::size_t>(r.u64());
  if (iter_ > n_iters_) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: iteration beyond run");
  }
  platform_->load(r);  // throws on a card-count mismatch
  if (r.b() != policy_->gpu_scaling) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: scaler mismatch");
  }
  for (Card& card : cards_) {
    card.nvml->load(r);
    if (card.scaler) card.scaler->load(r);
  }
  if (r.b() != (governor_ != nullptr)) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: governor mismatch");
  }
  if (governor_) governor_->load(r);
  if (r.b() != (divider_ != nullptr)) {
    throw common::SnapshotError("ExperimentEngine::restore_prefix: divider mismatch");
  }
  if (divider_) {
    divider_->load(r);
    shares_ = divider_->shares();
  }
  run_start_.time = Seconds{r.f64()};
  run_start_.gpu = Joules{r.f64()};
  run_start_.cpu = Joules{r.f64()};
  run_start_per_gpu_.clear();
  const std::uint64_t per_gpu = r.u64();
  for (std::uint64_t i = 0; i < per_gpu; ++i) run_start_per_gpu_.push_back(Joules{r.f64()});
  spin_time_start_ = r.f64();
  spin_energy_start_ = Joules{r.f64()};
  result_.convergence_iteration = static_cast<std::size_t>(r.u64());
  result_.division_moves = r.u64();
  result_.degraded_iterations = static_cast<std::size_t>(r.u64());
  result_.watchdog_trips = r.u64();
  watchdog_trips_left_ = static_cast<int>(r.u64());
  iteration_log_.load(r, load_iteration_record);

  // Re-arm the periodic tick trains at the exact next fire instants the
  // donor run had pending, in the donor's sequence order.  That order
  // matters only when ticks collide at the same instant: the train whose
  // previous tick (re)scheduled it earlier holds the smaller sequence
  // number, and trains scheduled at the same instant keep attach order
  // (the cards' scalers, then the governor), as start() armed them.
  struct Train {
    Seconds scheduled;
    GpuFrequencyScaler* scaler;  // null: the governor
  };
  std::vector<Train> trains;
  for (Card& card : cards_) {
    if (card.scaler) {
      trains.push_back({tick_time(card.scaler->params().interval, card.scaler->steps()),
                        card.scaler.get()});
    }
  }
  if (governor_) {
    trains.push_back({tick_time(governor_->interval(), governor_->steps()), nullptr});
  }
  std::stable_sort(trains.begin(), trains.end(), [](const Train& a, const Train& b) {
    return a.scheduled < b.scheduled;
  });
  for (const Train& train : trains) {
    if (train.scaler) {
      train.scaler->attach_at(platform_->queue(), tick_time(train.scaler->params().interval,
                                                            train.scaler->steps() + 1));
    } else {
      governor_->attach_at(tick_time(governor_->interval(), governor_->steps() + 1));
    }
  }
}

ExperimentResult run_experiment(workloads::Workload& workload, const Policy& policy,
                                const RunOptions& options, std::size_t gpu_count) {
  ExperimentEngine engine(workload, policy, options, gpu_count);
  return engine.run();
}

ExperimentResult run_experiment(const std::string& workload_name, const Policy& policy,
                                const RunOptions& options, std::size_t gpu_count) {
  auto wl = workloads::make_workload(workload_name);
  return run_experiment(*wl, policy, options, gpu_count);
}

}  // namespace gg::greengpu
