// greengpu_cli — run any workload under any policy from the command line.
//
//   greengpu_cli --workload kmeans --policy greengpu
//   greengpu_cli --workload streamcluster --policy scaling --trace trace.csv
//   greengpu_cli --workload kmeans --policy static-division --ratio 0.10
//   greengpu_cli --workload hotspot --policy division --divider qilin
//   greengpu_cli --workload all --policy greengpu --csv
//   greengpu_cli --list
//
// Every flag, the modes and policies that read it and its range are in
// one table, tools/cli_flags.h; a run without --workload prints it.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/common/flags.h"
#include "src/common/job_pool.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace_workload.h"
#include "tools/cli_flags.h"

namespace {

using namespace gg;

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
  params.hardened = flags.get_bool("hardened", false);

  const std::string name = flags.get_string("policy", "greengpu");
  greengpu::Policy policy;
  if (name == "static-division") {
    policy = greengpu::Policy::static_division(flags.get_double("ratio", 0.10), params);
  } else if (name == "static-pair") {
    policy = greengpu::Policy::static_pair(
        static_cast<std::size_t>(flags.get_int("core-level", 0)),
        static_cast<std::size_t>(flags.get_int("mem-level", 0)), params);
  } else {
    policy = greengpu::policy_by_name(name, params);
    if (policy.division) {
      const auto divider =
          greengpu::divider_from_string(flags.get_string("divider", "step"));
      // --policy division is named after its divider.
      if (name == "division") policy = greengpu::Policy::division_with(divider, params);
      policy.divider = divider;
    }
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
  if (r.final_shares.size() > 2) {
    std::printf("   shares");
    for (double s : r.final_shares) std::printf(" %.3f", s);
  } else if (r.final_ratio > 0.0) {
    std::printf("   split %2.0f/%2.0f", r.final_ratio * 100.0, (1.0 - r.final_ratio) * 100.0);
  }
  if (r.fault_event_count > 0) {
    std::printf("   faults %zu (degraded iters %zu)", r.fault_event_count,
                r.degraded_iterations);
  }
  std::printf("   %s\n", r.verify_skipped ? "(unverified)"
                                          : (r.verified ? "verified" : "VERIFY FAILED"));
}

/// False, after saying so on stderr, when `stream` could not open `file`.
bool opened(const std::ios& stream, const std::string& file) {
  if (!stream) std::fprintf(stderr, "cannot open %s\n", file.c_str());
  return !stream.fail();
}

int run(const Flags& flags) {
  const cli::Checked checked = cli::check_flags(flags);

  // --crash-at arms a process-wide kill-point in exit mode: the run dies
  // with exit code 70 exactly where a SIGKILL would leave it (no flushes),
  // which is what the CI crash-recovery matrix supervises from outside.
  std::optional<sim::CrashInjector> crash;
  if (flags.has("crash-at")) {
    crash.emplace(sim::parse_crash_spec(flags.get_string("crash-at")),
                  sim::CrashMode::kExit);
  }

  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));

  // Pipeline tuning is construction-time workload state; set it once before
  // any make_workload call (single runs, --workload all, campaigns alike).
  workloads::set_pipeline_tuning(
      {.pipelined = flags.get_bool("pipeline", true),
       .stream_depth = static_cast<std::size_t>(flags.get_int("stream-depth", 3)),
       .chunks = static_cast<std::size_t>(flags.get_int("chunks", 8))});

  if (checked.mode == cli::kList) {
    std::printf("workloads:");
    for (const auto& n : workloads::all_workload_names()) std::printf(" %s", n.c_str());
    std::printf("\npipeline workloads:");
    for (const auto& n : workloads::pipeline_workload_names()) {
      std::printf(" %s", n.c_str());
    }
    std::printf("\npolicies: best-performance scaling division greengpu static-division "
                "static-pair\ndividers: step qilin energy\n"
                "governors: none performance powersave ondemand conservative wma\n");
    return 0;
  }

  // Nothing here prints a retained decision record: every mode keeps only
  // the recorder's exact counters.
  greengpu::RunOptions options = greengpu::campaign_default_options();
  options.faults = checked.faults;
  options.max_iterations = static_cast<std::size_t>(flags.get_int("iterations", 0));
  options.faults_active_from = static_cast<std::size_t>(flags.get_int("fault-warmup", 0));
  options.sync_spin = flags.get_bool("sync", true);
  options.verify = !flags.get_bool("no-verify", false);

  if (checked.mode == cli::kCampaign) {
    greengpu::CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.options = options;
    const std::string engine = flags.get_string("engine", "scalar");
    cfg.engine = greengpu::campaign_engine_from_string(engine).value();  // checked
    cfg.fault_replicates =
        static_cast<std::size_t>(flags.get_int("fault-replicates", 0));
    if (flags.get_bool("hardened", false)) {
      // Fault-injected campaigns need the hardened controllers: un-hardened
      // policies DNF by design on a faulty platform (watchdog abort).
      for (const char* name :
           {"best-performance", "frequency-scaling", "division", "greengpu"}) {
        cfg.policies.push_back(greengpu::policy_by_name(name, {.hardened = true}));
      }
    }
    const greengpu::CheckpointOptions ckpt{
        .dir = flags.get_string("checkpoint-dir", ""),
        .every = static_cast<std::size_t>(flags.get_int("checkpoint-every", 0)),
        .resume = flags.get_bool("resume", false)};
    const std::string wl = flags.get_string("workload", "");
    if (!wl.empty() && wl != "all") cfg.workloads = {wl};
    const std::string json_file = flags.get_string("json", "");
    const greengpu::CampaignResult result = greengpu::run_campaign_checkpointed(
        cfg, ckpt,
        [](const std::string& w, const std::string& p, std::size_t done,
           std::size_t total) {
          std::fprintf(stderr, "[%zu/%zu] %s / %s\n", done, total, w.c_str(), p.c_str());
        });
    if (flags.get_bool("markdown", false)) {
      greengpu::write_campaign_markdown(std::cout, result);
    } else {
      greengpu::write_campaign_csv(std::cout, result);
    }
    if (!json_file.empty()) {
      std::ofstream out(json_file);
      if (!opened(out, json_file)) return 2;
      greengpu::write_campaign_json(out, result);
    }
    return result.all_verified() ? 0 : 1;
  }

  const greengpu::Policy policy = policy_from_flags(flags);

  // Trace replay mode: the workload is built from a utilization trace file.
  if (checked.mode == cli::kReplay) {
    const std::string replay_file = flags.get_string("replay", "");
    std::ifstream in(replay_file);
    if (!opened(in, replay_file)) return 2;
    workloads::TraceWorkload wl = workloads::TraceWorkload::from_csv(in);
    std::printf("replaying %zu trace phases (%.1f s at peak clocks)\n",
                wl.phases().size(), wl.trace_duration().get());
    const auto result = greengpu::run_experiment(wl, policy, options);
    print_human(result);
    return result.verified ? 0 : 1;
  }

  const std::string workload = flags.get_string("workload", "");
  if (workload.empty()) {
    std::fprintf(stderr, "missing --workload (or --list / --campaign / --replay)\n%s",
                 cli::usage().c_str());
    return 2;
  }
  const auto gpus = static_cast<std::size_t>(flags.get_int("gpus", 1));
  const std::string trace_file = flags.get_string("trace", "");
  options.record_trace = !trace_file.empty();
  const bool csv = flags.get_bool("csv", false);

  const std::vector<std::string> names = checked.mode == cli::kAll
                                             ? workloads::all_workload_names()
                                             : std::vector<std::string>{workload};

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
    results[i] = greengpu::run_experiment(names[i], policy, options, gpus);
  });

  int failures = 0;
  for (const auto& r : results) {
    if (csv) {
      csv_writer.row_values(r.workload, r.policy, r.exec_time.get(), r.gpu_energy.get(),
                            r.cpu_energy.get(), r.total_energy().get(), r.final_ratio,
                            r.gpu_dynamic_energy().get(),
                            r.emulated_cpu_throttle_energy().get(), r.verified ? 1 : 0);
    } else {
      print_human(r);
    }
    if (!r.verified) ++failures;
  }
  if (!trace_file.empty()) {  // a single workload: cli::check_flags
    std::ofstream out(trace_file);
    if (!opened(out, trace_file)) return 2;
    sim::write_trace_csv(out, results.front().trace);
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
