// Ablation A7: controller robustness under injected platform faults.
//
// Sweeps a uniform fault probability across every channel of the
// sim::FaultInjector (dropped/stale/corrupt utilization reads, rejected/
// delayed/clamped clock writes, failed kernel launches and host chunks,
// plus rate-scaled thermal-throttle episodes) and
// runs the full GreenGPU policy both un-hardened (the paper's daemon, which
// assumes a perfect platform) and hardened (stale-sample hold, bounded
// retries, rerouting, watchdog).  The hardened stack must finish every
// iteration with verified output at every rate and report the energy/time
// cost of degradation; the un-hardened stack is expected to DNF (watchdog
// abort) or diverge once the rate is high enough.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/greengpu/policy.h"

namespace {

using namespace gg;

struct Outcome {
  bool completed{false};   // run finished (no watchdog abort)
  bool verified{false};    // results matched the scalar reference
  double exec_time{0.0};
  double energy{0.0};
  std::size_t degraded{0};     // degraded iterations
  std::size_t fault_events{0};
  std::uint64_t watchdog_trips{0};
};

Outcome run(const std::string& workload, double rate, bool hardened,
            std::uint64_t seed) {
  greengpu::GreenGpuParams params;
  params.hardened = hardened;
  greengpu::RunOptions options = bench::default_options();
  options.faults = sim::FaultConfig::uniform(rate, seed);
  if (rate > 0.0) {
    // Thermal-throttle episodes arrive more often as the platform gets
    // flakier: a few per run at 20%.  uniform() covers only the per-call
    // channels; episodes are time-driven, so scale the MTBF with the rate.
    options.faults.throttle_mtbf = Seconds{60.0 / rate};
    options.faults.throttle_duration = Seconds{30.0};
  }
  Outcome o;
  try {
    const auto r =
        greengpu::run_experiment(workload, greengpu::Policy::green_gpu(params), options);
    o.completed = true;
    o.verified = r.verified;
    o.exec_time = r.exec_time.get();
    o.energy = r.total_energy().get();
    o.degraded = r.degraded_iterations;
    o.fault_events = r.fault_events.size();
    o.watchdog_trips = r.watchdog_trips;
  } catch (const greengpu::ExperimentAborted&) {
    o.completed = false;  // DNF
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("ablation_fault_rate",
                "robustness extension: hardened vs un-hardened GreenGPU on a "
                "flaky platform");

  const std::string workload = "kmeans";
  constexpr std::uint64_t kSeed = 0x5EEDFA517ULL;
  const double rates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

  // Cells catch ExperimentAborted (an expected DNF outcome), so this sweep
  // fans out over raw cell indices instead of ExperimentBatch.  Slot layout:
  // 2*rate_index + (0 = hardened, 1 = un-hardened).
  Outcome hardened_at[5];
  Outcome unhardened_at[5];
  bench::parallel_cells(bench::jobs_from_argv(argc, argv), 10, [&](std::size_t i) {
    const double rate = rates[i / 2];
    const bool hardened = (i % 2) == 0;
    (hardened ? hardened_at : unhardened_at)[i / 2] =
        run(workload, rate, hardened, kSeed);
  });

  std::printf(
      "\nworkload,fault_rate,policy,completed,verified,exec_time_s,total_energy_J,"
      "degraded_iters,fault_events,watchdog_trips\n");
  for (int idx = 0; idx < 5; ++idx) {
    const double rate = rates[idx];
    const Outcome& h = hardened_at[idx];
    const Outcome& u = unhardened_at[idx];
    std::printf("%s,%.2f,hardened,%d,%d,%.1f,%.0f,%zu,%zu,%llu\n", workload.c_str(),
                rate, h.completed ? 1 : 0, h.verified ? 1 : 0, h.exec_time, h.energy,
                h.degraded, h.fault_events,
                static_cast<unsigned long long>(h.watchdog_trips));
    std::printf("%s,%.2f,unhardened,%d,%d,%.1f,%.0f,%zu,%zu,%llu\n", workload.c_str(),
                rate, u.completed ? 1 : 0, u.verified ? 1 : 0, u.exec_time, u.energy,
                u.degraded, u.fault_events,
                static_cast<unsigned long long>(u.watchdog_trips));
  }

  std::printf("\n# robustness checks\n");
  bool hardened_all_ok = true;
  for (const Outcome& h : hardened_at) {
    hardened_all_ok = hardened_all_ok && h.completed && h.verified;
  }
  bench::check(hardened_all_ok,
               "hardened policy completes with verified output at every fault rate "
               "(including >= 10%)");
  bench::check(hardened_at[0].fault_events == 0,
               "rate 0 injects nothing (fault layer is a no-op when disabled)");
  bench::check(hardened_at[4].degraded > 0,
               "at 20% the hardened run reports the degradation it absorbed");
  bench::check(hardened_at[4].energy > 0.0 &&
                   hardened_at[4].exec_time >= hardened_at[0].exec_time,
               "degradation has a measurable perf cost (hardened 20% >= fault-free)");
  const Outcome& u_high = unhardened_at[3];  // 10%
  bench::check(!u_high.completed || !u_high.verified ||
                   u_high.exec_time > hardened_at[3].exec_time,
               "un-hardened policy at 10% DNFs, fails verify, or is slower than "
               "hardened");

  // Determinism: the whole sweep is a function of the seed.
  const Outcome again = run(workload, 0.10, /*hardened=*/true, kSeed);
  bench::check(again.completed == hardened_at[3].completed &&
                   again.energy == hardened_at[3].energy &&
                   again.exec_time == hardened_at[3].exec_time &&
                   again.fault_events == hardened_at[3].fault_events,
               "re-running with the same seed reproduces joules, time, and the "
               "fault schedule exactly");
  return 0;
}
