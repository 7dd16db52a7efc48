// greengpu_cli — run any workload under any policy from the command line.
//
//   greengpu_cli --workload kmeans --policy greengpu
//   greengpu_cli --workload streamcluster --policy scaling --trace trace.csv
//   greengpu_cli --workload kmeans --policy static-division --ratio 0.10
//   greengpu_cli --workload hotspot --policy division --divider qilin
//   greengpu_cli --workload all --policy greengpu --csv
//   greengpu_cli --list
//
// Flags (all optional unless noted):
//   --workload NAME|all         Table II name (required unless --list)
//   --policy P                  best-performance | scaling | division |
//                               greengpu | static-division | static-pair
//   --ratio R                   CPU share for static-division (default 0.1)
//   --core-level N --mem-level N   levels for static-pair (default 0 0)
//   --divider D                 step | qilin | energy (division policies)
//   --governor G                none|performance|powersave|ondemand|
//                               conservative|wma (scaling policies)
//   --step S --init-ratio R0 --safeguard 0|1     division tier parameters
//   --alpha-c A --alpha-m A --phi P --beta B --interval S    WMA parameters
//   --iterations N              truncate the run (skips verification)
//   --record MODE               telemetry retention: full | ring | counters
//                               (default: full for single runs, counters for
//                               --campaign; pure telemetry — energies and
//                               decisions are identical across modes)
//   --record-ring N             retained tail length for --record ring
//                               (default 256)
//   --jobs N                    fan independent cells across N workers
//                               (campaign / --workload all; 0 = all cores,
//                               default 1; output is identical for any N)
//   --sync 0|1                  synchronous (spinning) stack, default 1
//   --trace FILE.csv            write a 1 Hz platform trace
//   --csv                       machine-readable one-line-per-run output
//   --no-verify                 skip result verification
//   --gpus N                    run on N simulated cards (multi-GPU runner)
//   --replay FILE.csv           replay a utilization trace (time,core,mem)
//                               as the workload instead of a Table II name
//   --campaign                  run the full (workload x policy) matrix;
//                               with --json FILE, write a structured report
//   --engine scalar|batch       campaign execution engine (default scalar).
//                               The batch engine steps a workload row's cells
//                               in lockstep, memoizes one real verification
//                               per workload and forks fault replicates from
//                               a shared warm-up snapshot; reports are
//                               byte-identical to the scalar engine
//   --fault-replicates R        campaign fault-seed sweep: R copies of every
//                               policy, each with a distinct forked seed
//                               (needs an active --fault-* channel)
//   --fault-warmup W            install the fault injector at iteration W
//                               instead of before setup (fault-free warm-up
//                               prefix; lets --engine batch fork replicates)
//
// Pipeline workloads (kmeans_pipeline, srad_stream — opt-in by name, not in
// --workload all; see docs/ARCHITECTURE.md "Asynchronous streams"):
//   --pipeline 0|1              1 (default) overlaps transfers with kernels
//                               on multiple streams; 0 runs the synchronous
//                               baseline (same ops, blocking per chunk)
//   --stream-depth N            double-buffer slots / concurrent in-flight
//                               chunks, in [1, 64] (default 3)
//   --chunks N                  chunks (kmeans_pipeline) or frames per
//                               iteration (srad_stream), in [1, 8192]
//                               (default 8)
//
// Crash consistency (docs/RECOVERY.md):
//   --checkpoint-dir DIR        journal + snapshot directory (enables
//                               checkpointing; created if missing)
//   --checkpoint-every N        also snapshot controller state every N
//                               iterations (N >= 1; omit to disable; needs
//                               --checkpoint-dir)
//   --resume                    campaign only: skip cells already in DIR's
//                               journal; the finished report is byte-identical
//                               to an uninterrupted run
//   --crash-at POINT[:N]        die (exit code 70) at the Nth hit of a named
//                               kill-point: pre-scaler-step, post-scaler-step,
//                               mid-checkpoint, mid-campaign-cell
//
// Fault injection (all rates in [0,1]; injector installs only if any is set):
//   --fault-rate R              uniform preset: every channel at rate R
//   --fault-seed N              deterministic fault schedule seed
//   --fault-util-drop R --fault-util-stale R --fault-util-corrupt R
//   --fault-clock-reject R --fault-clock-delay R --fault-clock-clamp R
//   --fault-clock-delay-s S     latency of a delayed clock write (default 0.5)
//   --fault-launch R --fault-host R     kernel-launch / host-chunk failures
//   --fault-throttle-mtbf S     mean time between thermal-throttle episodes
//                               (0 disables; exponential gaps)
//   --fault-throttle-duration S episode length (default 5)
//   --hardened 0|1              enable the hardened controllers (retries,
//                               rerouting, stale-sample hold, watchdog)
//
// Campaign example:
//   greengpu_cli --campaign --json report.json

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/common/flags.h"
#include "src/common/job_pool.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/multi_runner.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace_workload.h"

namespace {

using namespace gg;

/// Up-front range validation with one-line errors naming the offending
/// flag.  Without this, bad WMA parameters only surface as constructor
/// exceptions deep inside campaign workers (naming the field, not the
/// flag), and fault rates the same; main() prints the message and exits 2.
void validate_flag_ranges(const Flags& flags) {
  const auto reject = [](const std::string& message) {
    throw std::invalid_argument(message);
  };
  if (flags.has("phi")) {
    const double v = flags.get_double("phi", 0.0);
    if (v < 0.0 || v > 1.0) reject("--phi must be in [0, 1]");
  }
  if (flags.has("beta")) {
    const double v = flags.get_double("beta", 0.0);
    if (v <= 0.0 || v >= 1.0) reject("--beta must be in (0, 1)");
  }
  for (const char* name :
       {"fault-rate", "fault-util-drop", "fault-util-stale", "fault-util-corrupt",
        "fault-clock-reject", "fault-clock-delay", "fault-clock-clamp",
        "fault-launch", "fault-host"}) {
    if (!flags.has(name)) continue;
    const double v = flags.get_double(name, 0.0);
    if (v < 0.0 || v > 1.0) reject(std::string("--") + name + " must be in [0, 1]");
  }
  for (const char* name :
       {"fault-clock-delay-s", "fault-throttle-mtbf", "fault-throttle-duration"}) {
    if (!flags.has(name)) continue;
    if (flags.get_double(name, 0.0) < 0.0) {
      reject(std::string("--") + name + " must be >= 0");
    }
  }
  if (flags.has("checkpoint-every") && flags.get_int("checkpoint-every", 0) < 1) {
    reject("--checkpoint-every must be >= 1 (omit the flag to disable "
           "periodic snapshots)");
  }
  if (flags.has("checkpoint-every") && flags.get_string("checkpoint-dir", "").empty()) {
    reject("--checkpoint-every requires --checkpoint-dir");
  }
  if (flags.get_bool("resume", false)) {
    if (!flags.get_bool("campaign", false)) reject("--resume requires --campaign");
    if (flags.get_string("checkpoint-dir", "").empty()) {
      reject("--resume requires --checkpoint-dir");
    }
  }
  if (flags.has("engine")) {
    if (!flags.get_bool("campaign", false)) reject("--engine requires --campaign");
    const std::string v = flags.get_string("engine", "");
    if (!greengpu::campaign_engine_from_string(v).has_value()) {
      reject("--engine must be 'scalar' or 'batch', got '" + v + "'");
    }
  }
  if (flags.has("fault-replicates")) {
    if (!flags.get_bool("campaign", false)) {
      reject("--fault-replicates requires --campaign");
    }
    if (flags.get_int("fault-replicates", 0) < 0) {
      reject("--fault-replicates must be >= 0");
    }
  }
  if (flags.has("fault-warmup") && flags.get_int("fault-warmup", 0) < 0) {
    reject("--fault-warmup must be >= 0");
  }
  if (flags.has("stream-depth")) {
    const long long v = flags.get_int("stream-depth", 3);
    if (v < 1 || v > 64) reject("--stream-depth must be in [1, 64]");
  }
  if (flags.has("chunks")) {
    const long long v = flags.get_int("chunks", 8);
    if (v < 1 || v > 8192) reject("--chunks must be in [1, 8192]");
  }
}

greengpu::CheckpointOptions checkpoint_options_from_flags(const Flags& flags) {
  greengpu::CheckpointOptions ckpt;
  ckpt.dir = flags.get_string("checkpoint-dir", "");
  ckpt.every = static_cast<std::size_t>(flags.get_int("checkpoint-every", 0));
  ckpt.resume = flags.get_bool("resume", false);
  return ckpt;
}

sim::FaultConfig fault_config_from_flags(const Flags& flags) {
  // The --fault-* family is shared with greengpud; the parser lives with the
  // config it builds (src/sim/fault.h).
  sim::FaultConfig cfg = sim::FaultConfig::from_flags(flags);
  return cfg;
}

greengpu::RecordOptions record_options_from_flags(const Flags& flags,
                                                 greengpu::RecordMode default_mode) {
  greengpu::RecordOptions rec;
  rec.mode = greengpu::record_mode_from_string(
      flags.get_string("record", std::string(greengpu::to_string(default_mode))));
  const long long ring = flags.get_int("record-ring", 256);
  if (ring <= 0) throw std::invalid_argument("--record-ring must be > 0");
  rec.ring_capacity = static_cast<std::size_t>(ring);
  return rec;
}

greengpu::Policy policy_from_flags(const Flags& flags) {
  greengpu::GreenGpuParams params;
  params.division.step = flags.get_double("step", params.division.step);
  params.division.initial_ratio =
      flags.get_double("init-ratio", params.division.initial_ratio);
  params.division.safeguard = flags.get_bool("safeguard", params.division.safeguard);
  params.wma.alpha_core = flags.get_double("alpha-c", params.wma.alpha_core);
  params.wma.alpha_mem = flags.get_double("alpha-m", params.wma.alpha_mem);
  params.wma.phi = flags.get_double("phi", params.wma.phi);
  params.wma.beta = flags.get_double("beta", params.wma.beta);
  params.wma.interval = Seconds{flags.get_double("interval", params.wma.interval.get())};
  params.hardening.enabled = flags.get_bool("hardened", false);

  const std::string name = flags.get_string("policy", "greengpu");
  greengpu::Policy policy;
  if (name == "best-performance" || name == "baseline") {
    policy = greengpu::Policy::best_performance();
  } else if (name == "scaling" || name == "frequency-scaling") {
    policy = greengpu::Policy::scaling_only(params);
  } else if (name == "division") {
    policy = greengpu::Policy::division_with(
        greengpu::divider_from_string(flags.get_string("divider", "step")), params);
  } else if (name == "greengpu") {
    policy = greengpu::Policy::green_gpu(params);
    policy.divider = greengpu::divider_from_string(flags.get_string("divider", "step"));
  } else if (name == "static-division") {
    policy = greengpu::Policy::static_division(flags.get_double("ratio", 0.10));
  } else if (name == "static-pair") {
    policy = greengpu::Policy::static_pair(
        static_cast<std::size_t>(flags.get_int("core-level", 0)),
        static_cast<std::size_t>(flags.get_int("mem-level", 0)));
  } else {
    throw std::invalid_argument("unknown policy: " + name);
  }
  if (flags.has("governor")) {
    policy.cpu_governor =
        greengpu::cpu_governor_from_string(flags.get_string("governor", "ondemand"));
  }
  return policy;
}

void print_human(const greengpu::ExperimentResult& r) {
  std::printf("%-14s %-22s exec %9.1f s   GPU %9.0f J   CPU %9.0f J   total %9.0f J",
              r.workload.c_str(), r.policy.c_str(), r.exec_time.get(),
              r.gpu_energy.get(), r.cpu_energy.get(), r.total_energy().get());
  if (r.final_ratio > 0.0) std::printf("   split %2.0f/%2.0f", r.final_ratio * 100.0,
                                       (1.0 - r.final_ratio) * 100.0);
  if (r.fault_event_count > 0) {
    std::printf("   faults %zu (degraded iters %zu)", r.fault_event_count,
                r.degraded_iterations);
  }
  std::printf("   %s\n", r.verify_skipped ? "(unverified)"
                                          : (r.verified ? "verified" : "VERIFY FAILED"));
}

void print_csv_row(CsvWriter& w, const greengpu::ExperimentResult& r) {
  w.row_values(r.workload, r.policy, r.exec_time.get(), r.gpu_energy.get(),
               r.cpu_energy.get(), r.total_energy().get(), r.final_ratio,
               r.gpu_dynamic_energy().get(), r.emulated_cpu_throttle_energy().get(),
               r.verified ? 1 : 0);
}

/// The complete flag vocabulary (the doc comment at the top of this file).
/// A flag outside this list is a typo, and typos must fail loudly: a
/// silently-ignored --fault-rtae changes what experiment actually ran.
void reject_unknown_flags(const Flags& flags) {
  static constexpr const char* kKnown[] = {
      "workload", "policy", "ratio", "core-level", "mem-level", "divider",
      "governor", "step", "init-ratio", "safeguard", "alpha-c", "alpha-m",
      "phi", "beta", "interval", "iterations", "record", "record-ring",
      "jobs", "sync", "trace", "csv", "no-verify", "gpus", "replay",
      "campaign", "json", "markdown", "list", "checkpoint-dir",
      "checkpoint-every", "resume", "crash-at", "hardened", "fault-rate",
      "fault-seed", "fault-util-drop", "fault-util-stale",
      "fault-util-corrupt", "fault-clock-reject", "fault-clock-delay",
      "fault-clock-clamp", "fault-clock-delay-s", "fault-launch",
      "fault-host", "fault-throttle-mtbf", "fault-throttle-duration",
      "engine", "fault-replicates", "fault-warmup", "pipeline",
      "stream-depth", "chunks"};
  for (const char* name : kKnown) (void)flags.has(name);  // has() marks consumed
  flags.reject_unknown();
}

int run(const Flags& flags) {
  reject_unknown_flags(flags);
  validate_flag_ranges(flags);

  // --crash-at arms a process-wide kill-point in exit mode: the run dies
  // with exit code 70 exactly where a SIGKILL would leave it (no flushes),
  // which is what the CI crash-recovery matrix supervises from outside.
  std::optional<sim::CrashInjector> crash;
  const std::string crash_at = flags.get_string("crash-at", "");
  if (!crash_at.empty()) {
    crash.emplace(sim::parse_crash_spec(crash_at), sim::CrashMode::kExit);
  }

  // Worker count for the parallel modes (campaign, --workload all).  Output
  // is byte-identical for every value; only wall-clock changes.
  const long long jobs_flag = flags.get_int("jobs", 1);
  const std::size_t jobs = jobs_flag < 0 ? 0 : static_cast<std::size_t>(jobs_flag);

  // Pipeline tuning is construction-time workload state; set it once before
  // any make_workload call (single runs, --workload all, campaigns alike).
  workloads::PipelineTuning tuning;
  tuning.pipelined = flags.get_bool("pipeline", true);
  tuning.stream_depth = static_cast<std::size_t>(flags.get_int("stream-depth", 3));
  tuning.chunks = static_cast<std::size_t>(flags.get_int("chunks", 8));
  workloads::set_pipeline_tuning(tuning);

  if (flags.get_bool("list", false)) {
    std::printf("workloads:");
    for (const auto& n : workloads::all_workload_names()) std::printf(" %s", n.c_str());
    std::printf("\npipeline workloads:");
    for (const auto& n : workloads::pipeline_workload_names()) {
      std::printf(" %s", n.c_str());
    }
    std::printf("\npolicies: best-performance scaling division greengpu "
                "static-division static-pair\n");
    std::printf("dividers: step qilin energy\n");
    std::printf("governors: none performance powersave ondemand conservative wma\n");
    return 0;
  }

  if (flags.get_bool("campaign", false)) {
    greengpu::CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.options.record = record_options_from_flags(flags, greengpu::RecordMode::kCounters);
    cfg.options.faults = fault_config_from_flags(flags);
    cfg.options.max_iterations = static_cast<std::size_t>(flags.get_int("iterations", 0));
    cfg.options.faults_active_from =
        static_cast<std::size_t>(flags.get_int("fault-warmup", 0));
    // Validated in validate_flag_ranges; .value() cannot throw here.
    cfg.engine = greengpu::campaign_engine_from_string(
                     flags.get_string("engine", "scalar"))
                     .value();
    cfg.fault_replicates =
        static_cast<std::size_t>(flags.get_int("fault-replicates", 0));
    if (flags.get_bool("hardened", false)) {
      // Fault-injected campaigns need the hardened controllers: un-hardened
      // policies DNF by design on a faulty platform (watchdog abort).
      cfg.policies = {greengpu::Policy::best_performance(), greengpu::Policy::scaling_only(),
                      greengpu::Policy::division_only(), greengpu::Policy::green_gpu()};
      for (auto& p : cfg.policies) p.params.hardening.enabled = true;
    }
    const greengpu::CheckpointOptions ckpt = checkpoint_options_from_flags(flags);
    const std::string wl = flags.get_string("workload", "");
    if (!wl.empty() && wl != "all") cfg.workloads = {wl};
    const std::string json_file = flags.get_string("json", "");
    const bool markdown = flags.get_bool("markdown", false);
    const auto unknown_flags = flags.unconsumed();
    if (!unknown_flags.empty()) {
      for (const auto& key : unknown_flags) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      }
      return 2;
    }
    const greengpu::CampaignResult result = greengpu::run_campaign_checkpointed(
        cfg, ckpt,
        [](const std::string& w, const std::string& p, std::size_t done,
           std::size_t total) {
          std::fprintf(stderr, "[%zu/%zu] %s / %s\n", done, total, w.c_str(), p.c_str());
        });
    if (markdown) {
      greengpu::write_campaign_markdown(std::cout, result);
    } else {
      greengpu::write_campaign_csv(std::cout, result);
    }
    if (!json_file.empty()) {
      std::ofstream out(json_file);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", json_file.c_str());
        return 2;
      }
      greengpu::write_campaign_json(out, result);
    }
    return result.all_verified() ? 0 : 1;
  }

  // Trace replay mode: the workload is built from a utilization trace file.
  const std::string replay_file = flags.get_string("replay", "");
  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_file.c_str());
      return 2;
    }
    workloads::TraceWorkload wl = workloads::TraceWorkload::from_csv(in);
    const greengpu::Policy policy = policy_from_flags(flags);
    greengpu::RunOptions options;
    options.sync_spin = flags.get_bool("sync", true);
    options.verify = !flags.get_bool("no-verify", false);
    options.faults = fault_config_from_flags(flags);
    options.record = record_options_from_flags(flags, greengpu::RecordMode::kFull);
    const auto unknown_flags = flags.unconsumed();
    if (!unknown_flags.empty()) {
      for (const auto& key : unknown_flags) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      }
      return 2;
    }
    std::printf("replaying %zu trace phases (%.1f s at peak clocks)\n",
                wl.phases().size(), wl.trace_duration().get());
    const auto result = greengpu::run_experiment(wl, policy, options);
    print_human(result);
    return result.verified ? 0 : 1;
  }

  const std::string workload = flags.get_string("workload", "");
  if (workload.empty()) {
    std::fprintf(stderr, "missing --workload (or --list / --campaign / --replay); see "
                         "the header of tools/greengpu_cli.cpp for usage\n");
    return 2;
  }
  const std::size_t gpus = static_cast<std::size_t>(flags.get_int("gpus", 1));
  if (gpus > 1) {
    // Multi-GPU path uses the MultiPolicy mapping of the requested policy.
    const std::string pol = flags.get_string("policy", "greengpu");
    greengpu::MultiPolicy mpolicy;
    if (pol == "best-performance" || pol == "baseline") {
      mpolicy = greengpu::MultiPolicy::baseline();
    } else if (pol == "division") {
      mpolicy = greengpu::MultiPolicy::division_only(greengpu::MultiDividerKind::kProfiling);
    } else if (pol == "greengpu") {
      mpolicy = greengpu::MultiPolicy::green_gpu(greengpu::MultiDividerKind::kProfiling);
    } else {
      std::fprintf(stderr, "policy '%s' is not available with --gpus > 1\n", pol.c_str());
      return 2;
    }
    mpolicy.params.hardening.enabled = flags.get_bool("hardened", false);
    greengpu::MultiRunOptions moptions;
    moptions.faults = fault_config_from_flags(flags);
    moptions.record = record_options_from_flags(flags, greengpu::RecordMode::kFull);
    const auto unknown_flags = flags.unconsumed();
    if (!unknown_flags.empty()) {
      for (const auto& key : unknown_flags) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      }
      return 2;
    }
    const auto r = greengpu::run_multi_experiment(workload, gpus, mpolicy, moptions);
    std::printf("%-14s %-20s gpus=%zu exec %9.1f s  total %9.0f J  shares",
                r.workload.c_str(), r.policy.c_str(), gpus, r.exec_time.get(),
                r.total_energy().get());
    for (double s : r.final_shares) std::printf(" %.3f", s);
    std::printf("  %s\n", r.verified ? "verified" : "VERIFY FAILED");
    return r.verified ? 0 : 1;
  }
  const greengpu::Policy policy = policy_from_flags(flags);

  greengpu::RunOptions options;
  options.max_iterations = static_cast<std::size_t>(flags.get_int("iterations", 0));
  options.sync_spin = flags.get_bool("sync", true);
  options.verify = !flags.get_bool("no-verify", false);
  options.faults = fault_config_from_flags(flags);
  options.faults_active_from =
      static_cast<std::size_t>(flags.get_int("fault-warmup", 0));
  options.record = record_options_from_flags(flags, greengpu::RecordMode::kFull);
  options.checkpoint_every = static_cast<std::size_t>(flags.get_int("checkpoint-every", 0));
  options.checkpoint_dir = flags.get_string("checkpoint-dir", "");
  if (!options.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options.checkpoint_dir);
  }
  const std::string trace_file = flags.get_string("trace", "");
  options.record_trace = !trace_file.empty();
  const bool csv = flags.get_bool("csv", false);

  const auto unknown = flags.unconsumed();
  if (!unknown.empty()) {
    for (const auto& key : unknown) std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }

  std::vector<std::string> names;
  if (workload == "all") {
    names = workloads::all_workload_names();
  } else {
    names.push_back(workload);
  }

  CsvWriter csv_writer(std::cout);
  if (csv) {
    csv_writer.row_values("workload", "policy", "exec_time_s", "gpu_energy_J",
                          "cpu_energy_J", "total_energy_J", "final_cpu_share",
                          "gpu_dynamic_energy_J", "emulated_cpu_throttle_J", "verified");
  }

  // Independent cells fan across the pool; printing stays a serial post-pass
  // over index-determined slots, so output does not depend on --jobs.
  std::vector<greengpu::ExperimentResult> results(names.size());
  common::JobPool pool(jobs);
  pool.run(names.size(), [&](std::size_t i) {
    greengpu::RunOptions cell = options;
    if (cell.checkpoint_every != 0) cell.checkpoint_tag = names[i];
    results[i] = greengpu::run_experiment(names[i], policy, cell);
  });

  int failures = 0;
  for (const auto& result : results) {
    if (csv) {
      print_csv_row(csv_writer, result);
    } else {
      print_human(result);
    }
    if (!result.verified) ++failures;
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", trace_file.c_str());
        return 2;
      }
      CsvWriter tw(out);
      tw.row_values("time_s", "gpu_core_mhz", "gpu_mem_mhz", "cpu_mhz", "gpu_core_util",
                    "gpu_mem_util", "cpu_util", "gpu_power_w", "cpu_power_w");
      for (const auto& s : result.trace) {
        tw.row_values(s.time.get(), s.gpu_core_freq.get(), s.gpu_mem_freq.get(),
                      s.cpu_freq.get(), s.gpu_core_util, s.gpu_mem_util, s.cpu_util,
                      s.gpu_power.get(), s.cpu_power.get());
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
