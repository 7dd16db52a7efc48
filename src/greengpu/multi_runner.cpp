#include "src/greengpu/multi_runner.h"

#include <stdexcept>

#include "src/cudalite/api.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/platform.h"
#include "src/workloads/registry.h"

namespace gg::greengpu {

MultiExperimentResult run_multi_experiment(workloads::Workload& workload,
                                           std::size_t gpu_count, const MultiPolicy& policy,
                                           const MultiRunOptions& options) {
  if (gpu_count == 0) throw std::invalid_argument("run_multi_experiment: gpu_count == 0");
  sim::Platform platform(gpu_count);
  cudalite::Runtime rt(platform, options.pool_workers, options.sync_spin);
  const std::size_t slots = gpu_count + 1;

  // Fault layer (strict no-op when every rate is zero).
  sim::FaultInjector* injector = nullptr;
  if (options.faults.any_faults()) {
    injector = &platform.install_faults(options.faults);
  }
  const HardeningParams& hard = policy.params.hardening;
  if (hard.enabled) {
    rt.set_fault_tolerance(
        cudalite::FaultTolerance{hard.max_launch_retries, hard.reroute_failed_side});
  }
  WmaParams wma = policy.params.wma;
  if (hard.enabled) wma.harden = true;

  // Per-card monitoring/actuation + optional scaling daemons.
  std::vector<std::unique_ptr<cudalite::NvmlDevice>> nvml;
  std::vector<std::unique_ptr<cudalite::NvSettings>> settings;
  std::vector<std::unique_ptr<GpuFrequencyScaler>> scalers;
  for (std::size_t g = 0; g < gpu_count; ++g) {
    nvml.push_back(std::make_unique<cudalite::NvmlDevice>(platform, g));
    settings.push_back(std::make_unique<cudalite::NvSettings>(platform, g));
    if (policy.gpu_scaling) {
      scalers.push_back(std::make_unique<GpuFrequencyScaler>(*nvml.back(),
                                                             *settings.back(), wma));
      scalers.back()->set_record(options.record);
      scalers.back()->attach(platform.queue());
    } else {
      settings.back()->set_clock_levels(0, 0);  // best-performance clocks
    }
  }
  std::unique_ptr<CpuGovernor> governor =
      make_cpu_governor(policy.cpu_governor, platform, policy.params.ondemand);
  if (governor) {
    governor->set_record(options.record);
    governor->attach();
  }

  // Division state.
  std::unique_ptr<MultiDivider> divider;
  std::vector<double> shares;
  if (policy.division && workload.divisible()) {
    divider = make_multi_divider(policy.divider, slots);
    shares = divider->shares();
  } else if (!policy.fixed_shares.empty()) {
    if (policy.fixed_shares.size() != slots) {
      throw std::invalid_argument("run_multi_experiment: fixed_shares size mismatch");
    }
    shares = policy.fixed_shares;
  } else {
    shares.assign(slots, 0.0);
    shares[1] = 1.0;  // all work on GPU 0
  }

  MultiExperimentResult result;
  result.workload = std::string(workload.name());
  result.policy = policy.name;
  result.gpu_count = gpu_count;

  workload.setup(rt);
  std::vector<cudalite::Stream> streams;
  streams.reserve(gpu_count);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    rt.set_device(g);
    streams.push_back(rt.create_stream());
  }
  rt.set_device(0);

  const sim::EnergySnapshot run_start = platform.snapshot();

  int watchdog_trips_left = hard.max_watchdog_trips;

  DecisionRecorder<MultiIterationRecord> iteration_log(options.record);

  for (std::size_t iter = 0; iter < workload.iterations(); ++iter) {
    const sim::EnergySnapshot e0 = platform.snapshot();
    const Seconds t0 = platform.now();
    const std::size_t ev0 = injector ? injector->events().size() : 0;
    bool throttled_at_start = false;
    if (injector != nullptr) {
      for (std::size_t g = 0; g < gpu_count; ++g) {
        throttled_at_start = throttled_at_start || injector->throttled(g);
      }
    }

    std::vector<bool> done(slots, false);
    std::vector<Seconds> done_at(slots, t0);
    std::size_t remaining = slots;
    workload.run_iteration_multi(rt, streams, iter, shares, [&](std::size_t slot) {
      if (!done[slot]) {
        done[slot] = true;
        done_at[slot] = platform.now();
        --remaining;
      }
    });
    if (injector != nullptr && hard.watchdog_timeout > Seconds{0.0}) {
      while (remaining != 0) {
        bool fired = false;
        sim::EventHandle wd =
            platform.queue().schedule_in(hard.watchdog_timeout, [&] { fired = true; });
        rt.wait_until([&] { return remaining == 0 || fired; });
        wd.cancel();
        if (remaining == 0) break;
        injector->note(sim::FaultChannel::kHarness, sim::FaultOutcome::kWatchdogTrip);
        ++result.watchdog_trips;
        if (!hard.enabled || --watchdog_trips_left < 0) {
          throw ExperimentAborted("run_multi_experiment: iteration " +
                                  std::to_string(iter) + " stuck — watchdog abort");
        }
      }
    } else {
      rt.wait_until([&] { return remaining == 0; });
    }
    workload.finish_iteration(rt, iter);

    const sim::EnergySnapshot e1 = platform.snapshot();
    MultiIterationRecord rec;
    rec.index = iter;
    rec.shares = shares;
    rec.slot_times.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) rec.slot_times[s] = done_at[s] - t0;
    rec.duration = e1.time - e0.time;
    rec.total_energy = sim::Platform::delta(e0, e1).total();

    if (injector != nullptr) {
      const auto& events = injector->events();
      rec.fault_events = events.size() - ev0;
      rec.degraded = throttled_at_start || fault_events_degrade(events, ev0);
      if (rec.degraded) ++result.degraded_iterations;
    }

    if (divider) {
      // A hardened policy skips the update on a degraded iteration — the
      // slot times are non-informative; the baseline learns from the noise.
      if (!(hard.enabled && rec.degraded)) {
        divider->update(rec.slot_times);
        shares = divider->shares();
      }
    }
    iteration_log.push(rec);
  }

  workload.teardown(rt);

  const sim::EnergySnapshot run_end = platform.snapshot();
  const sim::EnergyDelta total = sim::Platform::delta(run_start, run_end);
  result.exec_time = total.elapsed;
  result.cpu_energy = total.cpu;
  result.gpu_energy = total.gpu;
  result.per_gpu_energy.resize(gpu_count);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    result.per_gpu_energy[g] = run_end.per_gpu[g] - run_start.per_gpu[g];
  }
  result.final_shares = shares;

  result.iteration_count = static_cast<std::size_t>(iteration_log.total());
  result.iterations = iteration_log.take();

  for (auto& s : scalers) s->detach();
  if (governor) governor->detach();
  if (injector != nullptr) {
    result.fault_event_count = injector->events().size();
    result.fault_events = retained_fault_events(injector->events(), options.record);
  }
  result.verified = options.verify ? workload.verify(rt.pool()) : true;
  return result;
}

MultiExperimentResult run_multi_experiment(const std::string& workload_name,
                                           std::size_t gpu_count, const MultiPolicy& policy,
                                           const MultiRunOptions& options) {
  auto wl = workloads::make_workload(workload_name);
  return run_multi_experiment(*wl, gpu_count, policy, options);
}

}  // namespace gg::greengpu
