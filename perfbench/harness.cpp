// perfbench_harness — the compiled half of the benchmark (run.py is the
// other half: it builds this, runs it and prints the result line).
//
//   perfbench_harness --mode run --workload campaign|sweep --seed N
//                     --seconds T --trace 0|1 --work DIR --daemon PATH
//   perfbench_harness --mode setup --workload campaign|sweep --seed N
//   perfbench_harness --mode host
//
// Everything it measures goes through the library's public API (and the
// daemon's socket); spans for the traced run are recorded here, around
// those calls.  Human-readable lines go to stderr; the last stdout line is
// one JSON object (see Report).
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness.h"
#include "src/common/flags.h"
#include "src/common/job_pool.h"
#include "src/common/snapshot.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/batch_engine.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/wma_scaler.h"
#include "src/service/core.h"
#include "src/service/journal.h"
#include "src/service/telemetry.h"
#include "src/sim/platform.h"
#include "src/workloads/registry.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

// -- Report and statistics -----------------------------------------------------

void Report::print_json() const {
  // A non-finite value (a Fig. 8 pair with no energy, say) is a failed
  // measurement; printed as 0 it would read as the best possible result.
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, \"info\": {");
  first = true;
  for (const auto& [name, value] : info) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(), value.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of zero samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

namespace {

using namespace gg;

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

std::size_t host_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// -- Workload inputs -------------------------------------------------------------

constexpr std::size_t kReplicates = 24;
constexpr std::size_t kWarmup = 4;
constexpr std::size_t kCheckpointEvery = 25;

/// The sweep's rows, longest first (host time per row, measured on a
/// 4-vCPU VM): a pool worker claims the next row when it frees up, and with
/// the longest rows first the makespan no longer depends on which worker
/// got which row.  Table II plus the two pipeline workloads.
std::vector<std::string> sweep_names() {
  return {"kmeans", "bfs",           "nbody", "hotspot",     "kmeans_pipeline", "streamcluster",
          "QG",     "srad_v2", "srad_stream", "pathfinder", "lud"};
}

/// campaign: the paper's matrix (Table II x the four policies), full compute
/// and verification, scalar engine, one cell per pool job.  Rows keep the
/// Table II order, so every seed schedules the same cells together; the
/// seed orders the three policies compared against the baseline (which
/// stays first: savings are computed against it).
greengpu::CampaignConfig campaign_config(std::uint64_t seed) {
  greengpu::CampaignConfig cfg;
  cfg.workloads = workloads::all_workload_names();
  std::vector<greengpu::Policy> rest{greengpu::Policy::scaling_only(),
                                     greengpu::Policy::division_only(),
                                     greengpu::Policy::green_gpu()};
  std::mt19937_64 rng(seed);
  std::shuffle(rest.begin(), rest.end(), rng);
  cfg.policies = {greengpu::Policy::best_performance()};
  cfg.policies.insert(cfg.policies.end(), rest.begin(), rest.end());
  cfg.jobs = host_jobs();
  return cfg;
}

sim::FaultConfig benign_faults(std::uint64_t seed) {
  sim::FaultConfig f;
  f.seed = 0x5EEDULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  f.util_drop_rate = 0.05;
  f.util_stale_rate = 0.05;
  f.clock_reject_rate = 0.05;
  return f;
}

/// sweep: fault-seed replicates of Table II plus the pipeline workloads on
/// the batch engine, forked from a fault-free warm-up.  The seed picks the
/// fault schedules; the row order stays fixed because each cell's fault
/// stream is forked by its position in the matrix.
greengpu::CampaignConfig sweep_config(std::uint64_t seed) {
  greengpu::CampaignConfig cfg;
  cfg.workloads = sweep_names();
  cfg.jobs = host_jobs();
  cfg.engine = greengpu::CampaignEngine::kBatch;
  cfg.fault_replicates = kReplicates;
  cfg.options.faults = benign_faults(seed);
  cfg.options.faults_active_from = kWarmup;
  return cfg;
}

greengpu::CheckpointOptions sweep_checkpoint(const std::string& work) {
  greengpu::CheckpointOptions ckpt;
  ckpt.dir = work + "/sweep-checkpoint";
  ckpt.every = kCheckpointEvery;
  return ckpt;
}

/// Mean total energy of `policy` (averaged over its fault replicates) on
/// `workload`.
double mean_energy(const greengpu::CampaignResult& r, const std::string& workload,
                   const std::string& policy) {
  double sum = 0.0;
  int n = 0;
  const std::size_t pc = r.policy_names.size();
  for (std::size_t w = 0; w < r.workloads.size(); ++w) {
    if (r.workloads[w] != workload) continue;
    for (std::size_t p = 0; p < pc; ++p) {
      const std::string& name = r.policy_names[p];
      if (name == policy || name.rfind(policy + "#s", 0) == 0) {
        sum += r.cells[w * pc + p].result.total_energy().get();
        ++n;
      }
    }
  }
  return n ? sum / n : 0.0;
}

// -- campaign / sweep: timed passes ------------------------------------------------

struct Pass {
  double seconds{0.0};
  /// Per cell, in completion order: the call to its result.
  std::vector<double> cell_ms;
  std::string csv, json;
  greengpu::CampaignResult result;
};

/// One whole campaign, timed from the call to its result; every cell's
/// completion is timestamped through the progress callback.
Pass run_pass(const greengpu::CampaignConfig& cfg, const greengpu::CheckpointOptions& ckpt) {
  Pass pass;
  if (ckpt.enabled()) std::filesystem::remove_all(ckpt.dir);
  pass.cell_ms.reserve(greengpu::plan_campaign(cfg).total());
  const std::int64_t t0 = now_ns();
  // run_campaign* call the callback under their own lock.
  pass.result = greengpu::run_campaign_checkpointed(
      cfg, ckpt, [&](const std::string&, const std::string&, std::size_t, std::size_t) {
        pass.cell_ms.push_back(ms_since(t0));
      });
  pass.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  std::ostringstream csv, json;
  greengpu::write_campaign_csv(csv, pass.result);
  greengpu::write_campaign_json(json, pass.result);
  pass.csv = csv.str();
  pass.json = json.str();
  return pass;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Spawn this binary in setup mode and time it until it prints its ready line.
double time_setup(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  const std::int64_t t0 = now_ns();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) throw std::runtime_error("cannot spawn setup run");
  std::string got;
  char buf[64];
  double seconds = -1.0;
  while (seconds < 0.0) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (got.find('\n') != std::string::npos) seconds = static_cast<double>(now_ns() - t0) / 1e9;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (seconds < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("setup run failed");
  }
  return seconds;
}

/// Everything run_campaign does before its first cell: resolve the plan
/// and start the worker pool.  (The sweep's journal is opened by the pass
/// itself: creating it in set-up made set-up time follow the file system's
/// load, 1.6 to 4.3 ms across runs.)
void do_setup(const std::string& workload, std::uint64_t seed) {
  const greengpu::CampaignConfig cfg =
      workload == "sweep" ? sweep_config(seed) : campaign_config(seed);
  const greengpu::CampaignPlan plan = greengpu::plan_campaign(cfg);
  common::JobPool pool(cfg.jobs);
  std::printf("ready %zu cells\n", plan.total());
  std::fflush(stdout);
}

void run_matrix(const std::string& workload, std::uint64_t seed, double seconds,
                const std::string& work, const std::string& self, Report& report) {
  const bool sweep = workload == "sweep";
  const greengpu::CampaignConfig cfg = sweep ? sweep_config(seed) : campaign_config(seed);
  const greengpu::CheckpointOptions ckpt =
      sweep ? sweep_checkpoint(work) : greengpu::CheckpointOptions{};

  std::vector<double> setups;
  for (int i = 0; i < 21; ++i) {
    setups.push_back(time_setup(
        {self, "--mode", "setup", "--workload", workload, "--seed", std::to_string(seed)}));
  }
  report.metrics["setup_s"] = median(setups);

  // The first pass warms caches and is the reference every timed pass must
  // reproduce byte for byte.
  const Pass ref = run_pass(cfg, ckpt);
  std::fprintf(stderr, "%s: %zu cells; warm-up pass %.3f s\n", workload.c_str(),
               ref.result.cells.size(), ref.seconds);
  report.info["digest." + workload + "_csv"] = digest(ref.csv);
  report.info["digest." + workload + "_json"] = digest(ref.json);
  report.metrics["paper_error_pp"] = paper_error_pp([&](const char* w, const char* p) {
    return mean_energy(ref.result, w, p);
  });

  std::vector<double> pass_ms, cell_ms;
  const std::int64_t t0 = now_ns();
  while (pass_ms.size() < 3 || ms_since(t0) < seconds * 1e3) {
    const Pass pass = run_pass(cfg, ckpt);
    pass_ms.push_back(pass.seconds * 1e3);
    cell_ms.insert(cell_ms.end(), pass.cell_ms.begin(), pass.cell_ms.end());
    std::fprintf(stderr, "  pass %zu: %.3f s\n", pass_ms.size(), pass.seconds);
    const bool same = pass.csv == ref.csv && pass.json == ref.json &&
                      pass.cell_ms.size() == pass.result.cells.size();
    for (const auto& cell : pass.result.cells) {
      ++report.attempted;
      if (!cell.result.verified || !same) ++report.failed;
    }
  }
  if (ckpt.enabled()) std::filesystem::remove_all(ckpt.dir);
  report.metrics["cells_per_s"] =
      static_cast<double>(ref.result.cells.size()) / (median(pass_ms) / 1e3);
  report.metrics["latency_p50_ms"] = median(cell_ms);
  report.metrics["latency_tail_ms"] = quantile(cell_ms, kTailQ);
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.info["latency_samples"] = std::to_string(cell_ms.size());
  report.info["pass_p50_ms"] = std::to_string(median(pass_ms));
  std::fprintf(stderr,
               "%s: %zu passes, %.1f cells/s (median pass %.2f ms); cell result latency "
               "p50 %.2f ms, p95 %.2f ms (n=%zu); paper error %.4f pp\n",
               workload.c_str(), pass_ms.size(), report.metrics["cells_per_s"],
               median(pass_ms), report.metrics["latency_p50_ms"],
               report.metrics["latency_tail_ms"], cell_ms.size(),
               report.metrics["paper_error_pp"]);
}

// -- Traced run: per-layer probes --------------------------------------------------

struct MixCell {
  std::string workload;
  greengpu::Policy policy;
  greengpu::RunOptions options;
};

/// The workload's cells, one per (workload, policy): the campaign's matrix;
/// the sweep's, with its faults and without replicates.
std::vector<MixCell> mix_cells(const std::string& workload, std::uint64_t seed,
                               bool model_only) {
  const greengpu::CampaignConfig cfg =
      workload == "sweep" ? sweep_config(seed) : campaign_config(seed);
  greengpu::CampaignConfig flat = cfg;
  flat.fault_replicates = 0;
  const greengpu::CampaignPlan plan = greengpu::plan_campaign(flat);
  std::vector<MixCell> cells;
  for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
    for (std::size_t p = 0; p < plan.policies.size(); ++p) {
      MixCell c{plan.workloads[w], plan.policies[p], cfg.options};
      if (c.options.faults.any_faults()) {
        c.options.faults.seed = greengpu::campaign_cell_seed(c.options.faults.seed, cells.size());
      }
      c.options.model_only = model_only;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

struct CellOut {
  greengpu::ExperimentResult result;
  double host_ms{0.0};
  std::uint64_t events{0};
};

/// Drive every cell through ExperimentEngine on a JobPool, with spans
/// around construction, start, each step and finish.
std::vector<CellOut> cell_pass(const std::vector<MixCell>& cells, Tracer& tracer,
                               double& wall_ms, std::uint64_t id_base) {
  std::vector<CellOut> out(cells.size());
  common::JobPool pool(host_jobs());
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope root(tracer, "bench.pass", 0);
    const std::uint64_t root_id = root.span_id();
    pool.run(cells.size(), [&](std::size_t i) {
      const std::uint64_t id = id_base + i;
      const std::int64_t c0 = now_ns();
      Tracer::Scope cell(tracer, "greengpu.cell", id, root_id);
      workloads::WorkloadPtr w;
      {
        Tracer::Scope s(tracer, "workloads.construct", id);
        w = workloads::make_workload(cells[i].workload);
      }
      greengpu::ExperimentEngine engine(*w, cells[i].policy, cells[i].options);
      {
        Tracer::Scope s(tracer, "greengpu.engine.start", id);
        engine.start();
      }
      while (engine.iteration() < engine.total_iterations()) {
        Tracer::Scope s(tracer, "greengpu.engine.step", id);
        engine.step_iteration();
      }
      {
        Tracer::Scope s(tracer, "greengpu.engine.finish", id);
        out[i].result = engine.finish();
      }
      out[i].events = engine.platform().queue().fired_count();
      out[i].host_ms = ms_since(c0);
    });
  }
  wall_ms = ms_since(t0);
  return out;
}

bool same_results(const std::vector<CellOut>& a, const std::vector<CellOut>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i].result;
    const auto& y = b[i].result;
    if (x.exec_time.get() != y.exec_time.get() || x.gpu_energy.get() != y.gpu_energy.get() ||
        x.cpu_energy.get() != y.cpu_energy.get() || x.verified != y.verified ||
        x.scaler_decision_count != y.scaler_decision_count) {
      return false;
    }
  }
  return true;
}

double scaler_step_ns() {
  sim::Platform platform;
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  greengpu::GpuFrequencyScaler scaler(nvml, settings, greengpu::WmaParams{});
  scaler.set_record(greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0});
  constexpr int kSteps = 200000;
  double t = 0.0;
  std::uint64_t sink = 0;
  for (int i = 0; i < 1000; ++i, t += 3.0) sink += scaler.step(Seconds{t}).chosen.core;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSteps; ++i, t += 3.0) sink += scaler.step(Seconds{t}).chosen.core;
  const double ns = static_cast<double>(now_ns() - t0) / kSteps;
  return sink == 0xFFFFFFFFFFFFFFFFULL ? 0.0 : ns;
}

/// In-process service layer on the workload's request lines.
void service_probe(const std::vector<std::string>& names, std::uint64_t seed,
                   const std::string& work, Tracer& tracer, Report& report) {
  static const char* const kPolicies[] = {"best-performance", "frequency-scaling",
                                          "division", "greengpu"};
  constexpr int kLines = 2000;
  std::mt19937_64 rng(seed);
  std::vector<std::string> lines;
  for (int i = 0; i < kLines; ++i) {
    lines.push_back("SUBMIT " + names[rng() % names.size()] + " " + kPolicies[rng() % 4] +
                    " priority=" + std::to_string(rng() % 4) + " iters=2");
  }
  service::ServiceConfig config;
  config.queue_capacity = kLines;
  std::filesystem::create_directories(work);
  service::ServiceCore core(config, work + "/probe.journal", /*resume=*/false);
  (void)core.handle_line("PAUSE");
  std::vector<double> submit_us, query_us;
  double construct_us = 0.0;
  for (int i = 0; i < kLines; ++i) {
    // The ROADMAP's claim: SUBMIT time is almost all make_workload(name).
    // Whichever of the two runs second finds the first's freed pages and
    // warm caches, so the order alternates line by line.
    const auto construct = [&] {
      const std::int64_t c = now_ns();
      (void)workloads::make_workload(lines[i].substr(7, lines[i].find(' ', 7) - 7));
      construct_us += ms_since(c) * 1e3;
    };
    if (i % 2 == 0) construct();
    const std::int64_t t = now_ns();
    std::string reply;
    {
      Tracer::Scope s(tracer, "service.handle_line", static_cast<std::uint64_t>(i + 1));
      reply = core.handle_line(lines[i]);
    }
    submit_us.push_back(ms_since(t) * 1e3);
    if (i % 2 == 1) construct();
    ++report.attempted;
    if (reply.rfind("202 ", 0) != 0) ++report.failed;
    const std::string query = i % 4 == 3 ? "STATS" : "STATUS " + std::to_string(i + 1);
    const std::int64_t q = now_ns();
    (void)core.handle_line(query);
    query_us.push_back(ms_since(q) * 1e3);
  }
  report.metrics["service.submit_construct_share"] =
      construct_us / std::accumulate(submit_us.begin(), submit_us.end(), 0.0);
  report.metrics["service.submit_p50_us"] = median(submit_us);
  report.metrics["service.submit_p99_us"] = quantile(submit_us, 0.99);
  report.metrics["service.query_p99_us"] = quantile(query_us, 0.99);

  // run_job over one request per (workload, policy).
  std::vector<double> job_ms;
  std::uint64_t seq = 0;
  for (const std::string& n : names) {
    for (const char* p : kPolicies) {
      service::Request request;
      request.seq = ++seq;
      request.workload = n;
      request.policy = p;
      request.iterations = 2;
      const std::int64_t t = now_ns();
      Tracer::Scope s(tracer, "service.run_job", seq);
      const service::OutcomeRecord o =
          service::ServiceCore::run_job(config, request, 0, Seconds{0.0});
      job_ms.push_back(ms_since(t));
      ++report.attempted;
      if (o.status != service::OutcomeStatus::kOk) ++report.failed;
    }
  }
  report.metrics["service.run_job_ms"] =
      std::accumulate(job_ms.begin(), job_ms.end(), 0.0) / static_cast<double>(job_ms.size());

  // ServiceJournal::admit on a scratch journal.
  {
    service::ServiceJournal journal(work + "/scratch.journal", config.fingerprint(), true);
    service::Request request;
    request.workload = names.front();
    request.policy = "greengpu";
    const std::int64_t t = now_ns();
    for (int i = 0; i < kLines; ++i) {
      request.seq = static_cast<std::uint64_t>(i + 1);
      journal.admit(request);
    }
    report.metrics["service.journal_append_us"] = ms_since(t) * 1e3 / kLines;
  }

  // TelemetryHub::publish with one subscriber, drained like a healthy peer.
  {
    service::TelemetryHub hub(config.telemetry);
    const std::uint64_t id = hub.subscribe(1, {});
    service::ServiceRecord rec;
    rec.kind = service::RecordKind::kAdmit;
    rec.admit.workload = names.front();
    rec.admit.policy = "greengpu";
    const std::string payload = service::render(rec);
    constexpr int kEvents = 20000;
    std::uint64_t delivered = 0;
    const std::int64_t t = now_ns();
    for (int i = 0; i < kEvents; ++i) {
      hub.publish(payload);
      if (i % 128 == 127) {
        while (hub.next_frame(id)) ++delivered;
      }
    }
    while (hub.next_frame(id)) ++delivered;
    report.metrics["service.publish_us"] = ms_since(t) * 1e3 / kEvents;
    ++report.attempted;
    if (delivered + hub.dropped_total() != hub.published()) ++report.failed;
  }
}

/// Per span name and per layer (the name's first component), with the sum
/// of self times against the pass's wall time x workers: the root span's
/// self time is the wall time no cell covered, so the sum approaches
/// wall x workers as the pool stays busy.
void print_self_times(const Tracer& tracer, double wall_ms) {
  std::map<std::string, double> layer_self;
  double sum = 0.0;
  for (const auto& [name, t] : tracer.totals()) {
    std::fprintf(stderr, "  %-34s %8llu calls  total %10.2f ms  self %10.2f ms\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    layer_self[name.substr(0, name.find('.'))] += t.self_ms;
    sum += t.self_ms;
  }
  std::fprintf(stderr, "self time by layer (traced wall %.2f ms x %zu workers = %.2f ms):\n",
               wall_ms, host_jobs(), wall_ms * static_cast<double>(host_jobs()));
  for (const auto& [layer, ms] : layer_self) {
    std::fprintf(stderr, "  %-12s %10.2f ms  %5.1f%%\n", layer.c_str(), ms, 100.0 * ms / sum);
  }
  std::fprintf(stderr, "  sum of self times %.2f ms = %.3f x (wall x workers)\n", sum,
               sum / (wall_ms * static_cast<double>(host_jobs())));
}

void run_traced(const std::string& workload, std::uint64_t seed, const std::string& work,
                const std::string& daemon, Report& report) {
  const bool sweep = workload == "sweep";
  // `on` traces the cell pass whose self times are reported; `probes`
  // traces the single-layer probes that follow.
  Tracer off(false), on(true), probes(true);

  // Traced vs untraced pass over the same cells (the sweep's cells run
  // model-only with faults, as its batch engine runs them).
  const std::vector<MixCell> cells = mix_cells(workload, seed, sweep);
  // Alternate untraced and traced passes (at least a second of each); the
  // last traced pass is the one whose spans are kept.
  std::vector<double> off_ms, on_ms;
  std::vector<CellOut> ref, traced;
  double off_total = 0.0;
  while (off_ms.size() < 2 || off_total < 1000.0) {
    double w = 0.0;
    ref = cell_pass(cells, off, w, 0);
    off_ms.push_back(w);
    off_total += w;
    Tracer scratch(true);
    traced = cell_pass(cells, scratch, w, 1);
    on_ms.push_back(w);
  }
  double traced_wall = 0.0;
  traced = cell_pass(cells, on, traced_wall, 1);
  on_ms.push_back(traced_wall);
  report.metrics["bench.trace_overhead"] = median(on_ms) / median(off_ms) - 1.0;
  for (const CellOut& c : traced) {
    ++report.attempted;
    if (!sweep && !c.result.verified) ++report.failed;
  }
  ++report.attempted;
  if (!same_results(ref, traced)) ++report.failed;  // observing changed a result

  const auto totals = on.totals();
  auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) {
      throw std::runtime_error(std::string("no span ") + name + " was recorded");
    }
    return it->second.total_ms / static_cast<double>(it->second.count);
  };
  report.metrics["workloads.construct_us"] = mean_ms("workloads.construct") * 1e3;
  report.metrics["greengpu.engine.start_ms"] = mean_ms("greengpu.engine.start");
  report.metrics["greengpu.engine.step_ms"] = mean_ms("greengpu.engine.step");
  report.metrics["greengpu.engine.finish_ms"] = mean_ms("greengpu.engine.finish");
  double busy_ms = 0.0, events = 0.0, decisions = 0.0, moves = 0.0, transitions = 0.0,
         faults = 0.0;
  for (const CellOut& c : traced) {
    busy_ms += c.host_ms;
    events += static_cast<double>(c.events);
    decisions += static_cast<double>(c.result.scaler_decision_count);
    moves += static_cast<double>(c.result.division_moves);
    transitions += static_cast<double>(c.result.gpu_frequency_transitions);
    faults += static_cast<double>(c.result.fault_event_count);
  }
  report.metrics["common.job_pool.efficiency"] =
      busy_ms / (static_cast<double>(host_jobs()) * traced_wall);
  report.metrics["sim.events"] = events / static_cast<double>(traced.size());
  report.metrics["sim.fault_events"] = faults;
  report.metrics["greengpu.scaler.decisions"] = decisions;
  report.metrics["greengpu.division.moves"] = moves;
  report.metrics["greengpu.gpu_freq_transitions"] = transitions;

  // Real compute's share: the same cells model-only vs full, serially so
  // the host times do not contend.
  {
    const std::vector<MixCell> full = mix_cells(workload, seed, false);
    const std::vector<MixCell> model = mix_cells(workload, seed, true);
    double full_ms = 0.0, model_ms = 0.0, sim_s = 0.0, model_events = 0.0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      for (const MixCell* c : {&full[i], &model[i]}) {
        const std::int64_t t = now_ns();
        auto w = workloads::make_workload(c->workload);
        greengpu::ExperimentEngine engine(*w, c->policy, c->options);
        const greengpu::ExperimentResult r = engine.run();
        const double ms = ms_since(t);
        if (c == &full[i]) {
          full_ms += ms;
        } else {
          model_ms += ms;
          sim_s += r.exec_time.get();
          model_events += static_cast<double>(engine.platform().queue().fired_count());
        }
      }
    }
    report.metrics["workloads.compute_share"] = 1.0 - model_ms / full_ms;
    report.metrics["sim.ns_per_event"] = model_ms * 1e6 / model_events;
    report.metrics["sim.sim_s_per_host_s"] = sim_s / (model_ms / 1e3);
  }

  report.metrics["greengpu.scaler.step_ns"] = scaler_step_ns();

  // Batch engine counters and checkpoint overhead on the workload's plan.
  {
    greengpu::CampaignConfig cfg = sweep ? sweep_config(seed) : campaign_config(seed);
    const greengpu::CampaignPlan plan = greengpu::plan_campaign(cfg);
    greengpu::BatchCampaignEngine engine(plan, cfg.options, cfg.jobs);
    std::vector<greengpu::CampaignCell> out(plan.total());
    std::filesystem::create_directories(work);
    greengpu::CampaignJournal journal(work + "/trace.journal",
                                      greengpu::CampaignJournal::fingerprint(plan, cfg.options),
                                      /*fresh=*/true);
    const std::size_t pc = plan.policies.size();
    std::mutex mu;
    std::map<std::size_t, std::uint64_t> row_span;
    double batch_wall = 0.0;
    greengpu::BatchCampaignEngine::Hooks hooks;
    std::uint64_t root_span = 0;
    hooks.customize = [&](std::size_t i, greengpu::RunOptions&) {
      if (i % pc != 0) return;
      const std::uint64_t s = probes.begin("greengpu.batch.row", 1000000 + i / pc, root_span);
      std::lock_guard<std::mutex> lock(mu);
      row_span[i / pc] = s;
    };
    hooks.on_done = [&](std::size_t i, const greengpu::ExperimentResult& r) {
      {
        Tracer::Scope s(probes, "greengpu.recovery.journal_append", 1000000 + i / pc);
        std::lock_guard<std::mutex> lock(mu);
        journal.append(i, r);
      }
      if (i % pc == pc - 1) {
        std::uint64_t s;
        {
          std::lock_guard<std::mutex> lock(mu);
          s = row_span[i / pc];
        }
        probes.end(s);
      }
    };
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope root(probes, "bench.batch_pass", 0);
      root_span = root.span_id();
      engine.run(out, hooks);
    }
    batch_wall = ms_since(t0);
    const auto& st = engine.stats();
    report.metrics["greengpu.batch.model_only_ratio"] =
        static_cast<double>(st.model_runs) / static_cast<double>(st.full_runs + st.model_runs);
    report.metrics["greengpu.batch.forked_cells"] = static_cast<double>(st.forked_cells);
    report.metrics["greengpu.batch.prefix_iters_saved"] =
        static_cast<double>(st.prefix_iterations_saved);
    const auto t = probes.totals();
    const auto& ja = t.at("greengpu.recovery.journal_append");
    report.metrics["greengpu.recovery.journal_append_us"] =
        ja.total_ms * 1e3 / static_cast<double>(ja.count);
    std::fprintf(stderr, "batch pass over %zu cells: %.1f ms\n", out.size(), batch_wall);

    // Checkpointing (journal + controller snapshots every kCheckpointEvery)
    // against the same campaign without it.
    std::vector<double> with, without;
    const greengpu::CheckpointOptions ckpt = sweep_checkpoint(work + "/overhead");
    for (int rep = 0; rep < 2; ++rep) {
      with.push_back(run_pass(cfg, ckpt).seconds);
      without.push_back(run_pass(cfg, greengpu::CheckpointOptions{}).seconds);
    }
    std::filesystem::remove_all(ckpt.dir);
    report.metrics["greengpu.recovery.checkpoint_overhead"] = median(with) / median(without) - 1.0;
  }

  // Snapshot write: save_prefix of each distinct workload two iterations in.
  {
    std::vector<double> write_us, bytes;
    std::map<std::string, bool> seen;
    for (const MixCell& c : mix_cells(workload, seed, true)) {
      if (seen[c.workload]) continue;
      seen[c.workload] = true;
      greengpu::RunOptions options = c.options;
      options.faults_active_from = kWarmup;
      auto w = workloads::make_workload(c.workload);
      greengpu::ExperimentEngine engine(*w, c.policy, options);
      engine.start();
      for (int i = 0; i < 2 && engine.iteration() < engine.total_iterations(); ++i) {
        engine.step_iteration();
      }
      const std::int64_t t = now_ns();
      {
        Tracer::Scope s(probes, "common.snapshot.write", 0);
        common::SnapshotWriter writer;
        engine.save_prefix(writer);
        writer.write_atomic(work + "/prefix.ggsn");
        bytes.push_back(static_cast<double>(writer.frame().size()));
      }
      write_us.push_back(ms_since(t) * 1e3);
      (void)engine.finish();
    }
    report.metrics["common.snapshot.write_us"] = median(write_us);
    report.metrics["common.snapshot.bytes"] = median(bytes);
  }

  // cudalite: the two pipeline workloads (async streams, copy engine).
  {
    std::vector<double> ms;
    double busy = 0.0, overlap = 0.0;
    for (const std::string& name : workloads::pipeline_workload_names()) {
      greengpu::RunOptions options;
      const std::int64_t t = now_ns();
      greengpu::ExperimentResult r;
      {
        Tracer::Scope s(probes, "cudalite.pipeline_cell", 0);
        r = greengpu::run_experiment(name, greengpu::Policy::best_performance(), options);
      }
      ms.push_back(ms_since(t));
      for (const auto& it : r.iterations) {
        busy += it.copy_busy_time.get();
        overlap += it.overlap_time.get();
      }
      ++report.attempted;
      if (!r.verified) ++report.failed;
    }
    report.metrics["cudalite.pipeline_cell_ms"] = median(ms);
    report.metrics["cudalite.overlap_efficiency"] = busy > 0.0 ? overlap / busy : 0.0;
  }

  std::vector<std::string> names = sweep ? sweep_names() : workloads::all_workload_names();
  service_probe(names, seed, work + "/service", probes, report);

  // The service layer over the socket, on this workload's request names.
  DaemonPlan plan;
  plan.daemon_binary = daemon;
  plan.work_dir = work + "/daemon";
  plan.seed = seed;
  plan.names = names;
  Report d;
  run_daemon_workload(plan, d);
  report.metrics.insert(d.metrics.begin(), d.metrics.end());
  report.info.insert(d.info.begin(), d.info.end());
  report.attempted += d.attempted;
  report.failed += d.failed;

  std::fprintf(stderr, "spans of the traced cell pass:\n");
  print_self_times(on, traced_wall);
  std::fprintf(stderr, "spans of the single-layer probes:\n");
  for (const auto& [name, t] : probes.totals()) {
    std::fprintf(stderr, "  %-34s %8llu calls  total %10.2f ms  self %10.2f ms\n",
                 name.c_str(), static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
  }
  const std::string trace_path =
      std::filesystem::weakly_canonical(work + "/../trace-" + workload + ".json").string();
  Tracer::write_chrome_trace(trace_path, {&on, &probes});
  report.info["trace_file"] = trace_path;
  std::fprintf(stderr, "wrote %s (%zu + %zu spans)\n", trace_path.c_str(), on.spans().size(),
               probes.spans().size());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    gg::Flags flags(argc, argv);
    const std::string mode = flags.get_string("mode", "run");
    const std::string workload = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double seconds = flags.get_double("seconds", 10.0);
    const bool trace = flags.get_int("trace", 0) != 0;
    const std::string work = flags.get_string("work", ".bench_build/perfbench-work");
    const std::string daemon = flags.get_string("daemon", "");
    flags.reject_unknown();

    if (mode == "host") {
      std::printf("{\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                  host_jobs(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (workload != "campaign" && workload != "sweep") {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    if (mode == "setup") {
      do_setup(workload, seed);
      return 0;
    }
    std::filesystem::create_directories(work);
    Report report;
    if (trace) {
      run_traced(workload, seed, work, daemon, report);
    } else {
      run_matrix(workload, seed, seconds, work, "/proc/self/exe", report);
    }
    report.print_json();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
