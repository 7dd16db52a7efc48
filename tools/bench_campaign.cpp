// bench_campaign — performance record for the parallel experiment engine.
//
//   bench_campaign [--jobs N] [--out FILE.json]
//
// Runs the default (workload x policy) campaign across a worker sweep
// (--jobs 1, N/2, N) and
//   * asserts the CSV and JSON reports are byte-identical (the determinism
//     contract) at every sweep point, with and without fault injection,
//   * records wall-clock, runs/sec and the parallel speedup, plus a
//     single_core_host marker so the perf gate never compares parallel
//     speedups across host classes,
//   * times the batch campaign engine against the scalar engine on a
//     fault-replicate sweep (the batch engine's target shape: many cells
//     per workload sharing a warm-up prefix), asserts the two engines'
//     reports are byte-identical at every --jobs value, and records each
//     workload row's wall time in one more batch pass at the widest --jobs
//     value (first customize hook to last on_done hook) and the longest row,
//   * times the sim::EventQueue hot paths (schedule/fire, cancelled-entry
//     ride-along, DVFS-style cancel churn) in ns per event,
//   * times one Algorithm 1 scaler step through the fused fast path and
//     through the straight-line oracle of tests/greengpu/wma_oracle.h doing
//     the same per-step work (NVML read, loss vectors, update, argmax
//     rescan, clock write) (ns/op + speedup), and asserts their decision
//     streams match over the timed runs,
//   * times the campaign's two hottest real kernels on one thread: nbody's
//     all-pairs step in ns per interaction, and QG's Sobol generation in ns
//     per sample through Sobol::fill and through per-index Sobol::sample,
//     and asserts the fast paths' bits do not depend on how the work is cut
//     (nbody chunk splits, fill vs sample),
//   * times nbody's and kmeans' verify() references on a 1-worker pool and
//     on a host_cpus-worker pool, and asserts that both pool sizes verify a
//     full run and reject a run whose last merge step was skipped,
//   * times the CPU governor's sampling tick: a model-only frequency-scaling
//     kmeans cell minus its governor-less twin, per governor decision, and
//     asserts that the attached ondemand governor (back-to-back samples run
//     inline, off the event heap) decides and accounts bit for bit like the
//     same governor stepped from a plain self-re-arming heap event,
//   * measures the crash-checkpoint overhead (journal + periodic controller
//     snapshots at --checkpoint-every 0/10/100 vs no checkpointing) and
//     asserts the journaled reports stay byte-identical to the plain run,
// then writes the whole record as JSON (default BENCH_campaign.json).
//
// Exit code 0 iff every identity check passed.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/job_pool.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/batch_engine.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/crash.h"
#include "src/sim/event_queue.h"
#include "src/sim/platform.h"
#include "src/workloads/nbody.h"
#include "src/workloads/registry.h"
#include "src/workloads/sobol.h"
#include "tests/greengpu/wma_oracle.h"
#include "tests/workloads/hand_driven_run.h"

namespace {

using namespace gg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CampaignRun {
  std::string csv;
  std::string json;
  double seconds{0.0};
  std::size_t runs{0};
};

CampaignRun to_run(const greengpu::CampaignResult& result, double seconds) {
  CampaignRun out;
  out.seconds = seconds;
  out.runs = result.cells.size();
  std::ostringstream csv, json;
  greengpu::write_campaign_csv(csv, result);
  greengpu::write_campaign_json(json, result);
  out.csv = csv.str();
  out.json = json.str();
  return out;
}

CampaignRun run_campaign_timed(const greengpu::CampaignConfig& cfg) {
  const auto start = Clock::now();
  const greengpu::CampaignResult result = greengpu::run_campaign(cfg);
  return to_run(result, seconds_since(start));
}

CampaignRun run_campaign_checkpointed_timed(const greengpu::CampaignConfig& cfg,
                                            const greengpu::CheckpointOptions& ckpt) {
  const auto start = Clock::now();
  const greengpu::CampaignResult result = greengpu::run_campaign_checkpointed(cfg, ckpt);
  return to_run(result, seconds_since(start));
}

struct RowWall {
  std::string workload;
  double ms{0.0};
};

/// Each workload row's wall time in one batch-engine pass over `cfg`'s plan,
/// from the row's first `customize` hook to its last `on_done` hook.  A
/// timing pass only: the reports come from run_campaign's passes.
std::vector<RowWall> time_rows(const greengpu::CampaignConfig& cfg) {
  const greengpu::CampaignPlan plan = greengpu::plan_campaign(cfg);
  const std::size_t pc = plan.policies.size();
  std::vector<Clock::time_point> first(plan.workloads.size()), last(plan.workloads.size());
  std::vector<char> started(plan.workloads.size(), 0);
  std::mutex mu;
  greengpu::BatchCampaignEngine::Hooks hooks;
  hooks.customize = [&](std::size_t i, greengpu::RunOptions&) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    if (!started[i / pc]) first[i / pc] = now;
    started[i / pc] = 1;
  };
  hooks.on_done = [&](std::size_t i, const greengpu::ExperimentResult&) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    last[i / pc] = now;
  };
  greengpu::BatchCampaignEngine engine(plan, cfg.options, cfg.jobs, cfg.engine);
  std::vector<greengpu::CampaignCell> cells(plan.total());
  engine.run(cells, hooks);
  std::vector<RowWall> rows;
  for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
    rows.push_back({plan.workloads[w],
                    std::chrono::duration<double, std::milli>(last[w] - first[w]).count()});
  }
  return rows;
}

/// Fault channels that perturb every cell but never abort an un-hardened
/// controller (no launch/host failures, no throttle episodes), so the
/// default four policies all finish and the identity check exercises the
/// per-cell RNG fork.
sim::FaultConfig benign_faults() {
  sim::FaultConfig f;
  f.seed = 0xB16B00B5u;
  f.util_drop_rate = 0.05;
  f.util_stale_rate = 0.05;
  f.util_corrupt_rate = 0.02;
  f.clock_reject_rate = 0.05;
  return f;
}

struct QueueTimings {
  double schedule_fire_ns{0.0};
  double schedule_cancel_fire_ns{0.0};
  double cancel_churn_ns{0.0};
  std::uint64_t events_fired{0};  // anti-elision checksum
  std::uint64_t compactions{0};
};

QueueTimings time_event_queue() {
  using namespace gg::literals;
  QueueTimings t;

  {  // schedule + fire, 1000 events per queue
    constexpr int kReps = 2000, kEvents = 1000;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      for (int i = 0; i < kEvents; ++i) {
        q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
      }
      q.run_until_empty();
      t.events_fired += q.fired_count();
    }
    t.schedule_fire_ns = seconds_since(start) * 1e9 / (double(kReps) * kEvents);
  }

  {  // half the events cancelled before any fire
    constexpr int kReps = 2000, kEvents = 1000;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      std::vector<sim::EventHandle> handles;
      handles.reserve(kEvents / 2);
      for (int i = 0; i < kEvents; ++i) {
        sim::EventHandle h = q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
        if (i & 1) handles.push_back(h);
      }
      for (auto& h : handles) h.cancel();
      q.run_until_empty();
      t.events_fired += q.fired_count();
    }
    t.schedule_cancel_fire_ns = seconds_since(start) * 1e9 / (double(kReps) * kEvents);
  }

  {  // DVFS-style churn: standing population repeatedly cancelled + replaced
    constexpr std::size_t kPending = 512;
    constexpr int kReps = 200, kRounds = 16;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      std::vector<sim::EventHandle> handles(kPending);
      double base = 1.0;
      for (std::size_t i = 0; i < kPending; ++i) {
        handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
      }
      for (int round = 0; round < kRounds; ++round) {
        base += 1.0;
        for (std::size_t i = 0; i < kPending; ++i) {
          handles[i].cancel();
          handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
        }
      }
      q.run_until_empty();
      t.events_fired += q.fired_count();
      t.compactions += q.compaction_count();
    }
    t.cancel_churn_ns =
        seconds_since(start) * 1e9 / (double(kReps) * kPending * (kRounds + 1));
  }
  return t;
}

struct ScalerTimings {
  double fast_ns{0.0};
  double reference_ns{0.0};
  double speedup{0.0};
  bool decisions_match{true};
  std::uint64_t steps{0};
};

/// ns per full Algorithm 1 step for one implementation; appends the chosen
/// pair of every step to `chosen` so the two runs can be compared.
double time_scaler_steps(bool reference, std::uint64_t steps,
                         std::vector<greengpu::PairIndex>& chosen) {
  sim::Platform platform;
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  const greengpu::WmaParams params;
  greengpu::GpuFrequencyScaler scaler(nvml, settings, params);
  scaler.set_record(greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0});
  greengpu::oracle::WmaOracle oracle(params, greengpu::umean_table(settings.core_table()),
                                     greengpu::umean_table(settings.mem_table()));
  chosen.reserve(chosen.size() + steps);
  const auto start = Clock::now();
  double t = 0.0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (reference) {
      const cudalite::UtilizationSample sample = nvml.utilization_rates();
      const greengpu::PairIndex pair =
          oracle.step(static_cast<double>(sample.rates.gpu) / 100.0,
                      static_cast<double>(sample.rates.memory) / 100.0, true);
      settings.set_clock_levels(pair.core, pair.mem);
      chosen.push_back(pair);
    } else {
      chosen.push_back(scaler.step(Seconds{t}).chosen);
    }
    t += 3.0;
  }
  return seconds_since(start) * 1e9 / static_cast<double>(steps);
}

ScalerTimings time_scaler_step() {
  ScalerTimings t;
  t.steps = 200000;
  std::vector<greengpu::PairIndex> fast_chosen, ref_chosen;
  // Warm-up pass each to fault in code and settle the tables.
  { std::vector<greengpu::PairIndex> tmp; (void)time_scaler_steps(false, 1000, tmp); }
  { std::vector<greengpu::PairIndex> tmp; (void)time_scaler_steps(true, 1000, tmp); }
  t.fast_ns = time_scaler_steps(false, t.steps, fast_chosen);
  t.reference_ns = time_scaler_steps(true, t.steps, ref_chosen);
  t.speedup = t.fast_ns > 0.0 ? t.reference_ns / t.fast_ns : 0.0;
  t.decisions_match = fast_chosen == ref_chosen;
  return t;
}

struct KernelTimings {
  double nbody_ns_per_interaction{0.0};
  double fill_ns_per_sample{0.0};
  double sample_ns_per_sample{0.0};
  double fill_speedup{0.0};
  bool identical{false};
};

template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    secs.push_back(seconds_since(start));
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

/// Median of eleven timed passes per kernel, in the campaign's sizes: four
/// 1024-body nbody steps, and QG's 45 iterations x 8192 points of Sobol
/// generation cycling four dimensions.
KernelTimings time_kernels() {
  KernelTimings t;
  constexpr int kReps = 11;
  constexpr int kNbodySteps = 4;

  constexpr std::size_t kBodies = 1024;
  std::vector<double> pos(3 * kBodies), vel(3 * kBodies), mass(kBodies);
  std::vector<double> whole_pos(3 * kBodies), whole_vel(3 * kBodies);
  std::vector<double> split_pos(3 * kBodies), split_vel(3 * kBodies);
  for (std::size_t i = 0; i < 3 * kBodies; ++i) {
    pos[i] = std::sin(0.37 * static_cast<double>(i));
    vel[i] = 0.1 * std::cos(0.11 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i < kBodies; ++i) mass[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i));
  const workloads::NbodyStep whole{pos.data(),       vel.data(),       mass.data(),
                                   whole_pos.data(), whole_vel.data(), kBodies, 1e-3};
  const double nbody_s = median_seconds(kReps, [&] {
    for (int step = 0; step < kNbodySteps; ++step) workloads::advance_bodies(whole, 0, kBodies);
  });
  t.nbody_ns_per_interaction = nbody_s * 1e9 / (double(kNbodySteps) * kBodies * kBodies);
  // Odd chunk boundaries put bodies in different SIMD lanes and the tail.
  workloads::NbodyStep split = whole;
  split.pos_out = split_pos.data();
  split.vel_out = split_vel.data();
  workloads::advance_bodies(split, 0, 1);
  workloads::advance_bodies(split, 1, 512);
  workloads::advance_bodies(split, 512, kBodies);
  const bool nbody_identical =
      std::memcmp(whole_pos.data(), split_pos.data(), whole_pos.size() * sizeof(double)) == 0 &&
      std::memcmp(whole_vel.data(), split_vel.data(), whole_vel.size() * sizeof(double)) == 0;

  constexpr std::size_t kPoints = 8192, kIterations = 45, kDims = 4;
  const workloads::Sobol sobol(kDims);
  std::vector<double> filled(kPoints * kIterations), sampled(kPoints * kIterations);
  const auto first = [](std::size_t it) { return std::uint64_t{it} * kPoints + 60; };
  const double fill_s = median_seconds(kReps, [&] {
    for (std::size_t it = 0; it < kIterations; ++it) {
      sobol.fill(first(it), kPoints, it % kDims, filled.data() + it * kPoints);
    }
  });
  const double sample_s = median_seconds(kReps, [&] {
    for (std::size_t it = 0; it < kIterations; ++it) {
      for (std::size_t i = 0; i < kPoints; ++i) {
        sampled[it * kPoints + i] = sobol.sample(first(it) + i, it % kDims);
      }
    }
  });
  const double samples = double(kPoints) * kIterations;
  t.fill_ns_per_sample = fill_s * 1e9 / samples;
  t.sample_ns_per_sample = sample_s * 1e9 / samples;
  t.fill_speedup = fill_s > 0.0 ? sample_s / fill_s : 0.0;
  t.identical = nbody_identical &&
                std::memcmp(filled.data(), sampled.data(), filled.size() * sizeof(double)) == 0;
  return t;
}

struct VerifyTiming {
  std::string workload;
  double one_worker_ms{0.0};
  double pooled_ms{0.0};
  double speedup{0.0};
};

/// Median of seven interleaved verify() calls per pool size after one full
/// run of `name`; `identical` stays true only if every call verified and a
/// perturbed run fails on both pools.
VerifyTiming time_verify(const std::string& name, std::size_t workers, bool& identical) {
  constexpr int kReps = 7;
  VerifyTiming t;
  t.workload = name;
  common::JobPool one(1), many(workers);
  const workloads::WorkloadPtr wl = workloads::make_workload(name);
  workloads::run_by_hand(*wl, workers, wl->iterations());
  std::vector<double> one_ms, many_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = Clock::now();
    identical = wl->verify(one) && identical;
    one_ms.push_back(seconds_since(start) * 1e3);
    start = Clock::now();
    identical = wl->verify(many) && identical;
    many_ms.push_back(seconds_since(start) * 1e3);
  }
  std::sort(one_ms.begin(), one_ms.end());
  std::sort(many_ms.begin(), many_ms.end());
  t.one_worker_ms = one_ms[kReps / 2];
  t.pooled_ms = many_ms[kReps / 2];
  t.speedup = t.pooled_ms > 0.0 ? t.one_worker_ms / t.pooled_ms : 0.0;
  workloads::run_by_hand(*wl, workers, wl->iterations() - 1);
  identical = !wl->verify(one) && !wl->verify(many) && identical;
  return t;
}

struct GovernorTimings {
  double cell_ms{0.0};
  double no_governor_cell_ms{0.0};
  std::uint64_t decisions{0};
  double ns_per_tick{0.0};
  bool identical_to_heap_driven{false};
};

/// Runs an ondemand governor over a seeded mix of CPU bursts (waited on
/// with step() loops, like cudalite's synchronize) and synchronous-copy
/// spins, either attached or stepped from a plain heap event that re-arms
/// itself through schedule_in; returns the bit patterns of its decisions
/// and of the CPU's energy and activity integrals.
std::vector<std::uint64_t> governor_replay(bool attached) {
  sim::Platform platform;
  sim::EventQueue& queue = platform.queue();
  sim::CpuDevice& cpu = platform.cpu();
  greengpu::OndemandGovernor gov(platform);
  sim::EventHandle next;
  std::function<void()> arm = [&] {
    next = queue.schedule_in(gov.interval(), [&] {
      gov.step(queue.now());
      arm();
    });
  };
  if (attached) {
    gov.attach();
  } else {
    arm();
  }
  Rng rng(0x60E5);
  for (int i = 0; i < 400; ++i) {
    bool done = false;
    sim::CpuWork work;
    work.units = 1.0 + rng.uniform(0.0, 10.0);
    work.ops_per_unit = rng.uniform(1e7, 2e8);
    cpu.submit(work, [&done] { done = true; });
    while (!done) queue.step();
    done = false;
    cpu.set_spinning(true);
    queue.schedule_in(Seconds{rng.uniform(0.0, 5.0)}, [&done] { done = true; });
    while (!done) queue.step();
    queue.run_until(queue.now());
    cpu.set_spinning(false);
  }
  gov.detach();
  next.cancel();
  std::vector<std::uint64_t> bits;
  const auto put = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
  for (const greengpu::GovernorDecision& d : gov.decisions()) {
    put(d.time.get());
    put(d.util);
    bits.push_back(d.level);
  }
  const sim::CpuActivityCounters c = cpu.counters();
  put(cpu.energy().get());
  put(cpu.spin_energy().get());
  put(c.util_integral);
  put(c.busy_integral);
  put(c.spin_integral);
  return bits;
}

/// Median host time of a model-only kmeans cell under the paper's
/// frequency-scaling policy (ondemand on the CPU) and of the same cell with
/// no CPU governor, interleaved; their difference per governor decision is
/// the cost of one sampling tick.
GovernorTimings time_governor() {
  constexpr int kReps = 21;
  GovernorTimings t;
  greengpu::RunOptions options;
  options.model_only = true;
  options.verify = false;
  options.record = greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0};
  const greengpu::Policy with = greengpu::Policy::scaling_only();
  greengpu::Policy without = with;
  without.cpu_governor = greengpu::CpuGovernorKind::kNone;
  std::vector<double> with_ms, without_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = Clock::now();
    const greengpu::ExperimentResult r = greengpu::run_experiment("kmeans", with, options);
    with_ms.push_back(seconds_since(start) * 1e3);
    t.decisions = r.governor_decision_count;
    start = Clock::now();
    (void)greengpu::run_experiment("kmeans", without, options);
    without_ms.push_back(seconds_since(start) * 1e3);
  }
  std::sort(with_ms.begin(), with_ms.end());
  std::sort(without_ms.begin(), without_ms.end());
  t.cell_ms = with_ms[kReps / 2];
  t.no_governor_cell_ms = without_ms[kReps / 2];
  t.ns_per_tick = t.decisions > 0 ? (t.cell_ms - t.no_governor_cell_ms) * 1e6 /
                                        static_cast<double>(t.decisions)
                                  : 0.0;
  t.identical_to_heap_driven = governor_replay(true) == governor_replay(false);
  return t;
}

/// Sync-vs-pipelined comparison for one pipeline workload, all in simulated
/// units (host-class independent: both schedules run through the same model).
struct PipelineComparison {
  std::string name;
  double sync_seconds{0.0};
  double pipelined_seconds{0.0};
  double makespan_speedup{0.0};
  double sync_energy_j{0.0};
  double pipelined_energy_j{0.0};
  double overlap_efficiency{0.0};  // overlapped / copy-engine-busy seconds
  bool verified{false};
};

PipelineComparison compare_pipeline(const std::string& name) {
  greengpu::RunOptions options;
  options.pool_workers = 2;
  workloads::PipelineTuning tuning = workloads::pipeline_tuning();
  tuning.pipelined = false;
  workloads::set_pipeline_tuning(tuning);
  const greengpu::ExperimentResult sync =
      greengpu::run_experiment(name, greengpu::Policy::best_performance(), options);
  tuning.pipelined = true;
  workloads::set_pipeline_tuning(tuning);
  const greengpu::ExperimentResult pipe =
      greengpu::run_experiment(name, greengpu::Policy::best_performance(), options);

  PipelineComparison c;
  c.name = name;
  c.sync_seconds = sync.exec_time.get();
  c.pipelined_seconds = pipe.exec_time.get();
  c.makespan_speedup =
      c.pipelined_seconds > 0.0 ? c.sync_seconds / c.pipelined_seconds : 0.0;
  c.sync_energy_j = sync.total_energy().get();
  c.pipelined_energy_j = pipe.total_energy().get();
  double copy_busy = 0.0, overlap = 0.0;
  for (const auto& it : pipe.iterations) {
    copy_busy += it.copy_busy_time.get();
    overlap += it.overlap_time.get();
  }
  c.overlap_efficiency = copy_busy > 0.0 ? overlap / copy_busy : 0.0;
  c.verified = sync.verified && pipe.verified;
  return c;
}

bool report_identity(const char* what, const CampaignRun& a, const CampaignRun& b) {
  const bool csv_ok = a.csv == b.csv;
  const bool json_ok = a.json == b.json;
  std::printf("[%s] %s: CSV %s, JSON %s\n", csv_ok && json_ok ? "OK" : "FAIL", what,
              csv_ok ? "identical" : "DIFFERS", json_ok ? "identical" : "DIFFERS");
  return csv_ok && json_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const long long jobs_flag = flags.get_int("jobs", 0);
  const std::string out_file = flags.get_string("out", "BENCH_campaign.json");
  const auto unknown = flags.unconsumed();
  if (!unknown.empty()) {
    for (const auto& key : unknown) std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }

  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::size_t jobs = jobs_flag <= 0 ? (host_cpus ? host_cpus : 1)
                                          : static_cast<std::size_t>(jobs_flag);
  const bool single_core_host = host_cpus <= 1;

  std::printf("bench_campaign: host_cpus=%u jobs=%zu%s\n", host_cpus, jobs,
              single_core_host ? " (single-core host)" : "");

  // Worker sweep: 1, N/2, N (deduplicated; collapses to {1} on a
  // single-core host).  Every point must produce identical bytes.
  std::vector<std::size_t> jobs_sweep{1};
  if (jobs / 2 > 1) jobs_sweep.push_back(jobs / 2);
  if (jobs > jobs_sweep.back()) jobs_sweep.push_back(jobs);

  greengpu::CampaignConfig serial_cfg;
  serial_cfg.jobs = 1;
  greengpu::CampaignConfig parallel_cfg;
  parallel_cfg.jobs = jobs;

  std::printf("running campaign serially (--jobs 1)...\n");
  const CampaignRun serial = run_campaign_timed(serial_cfg);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", serial.runs, serial.seconds,
              serial.runs / serial.seconds);
  std::vector<CampaignRun> sweep_runs{serial};
  bool sweep_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = serial_cfg;
    cfg.jobs = jobs_sweep[i];
    std::printf("running campaign with %zu workers...\n", jobs_sweep[i]);
    const CampaignRun run = run_campaign_timed(cfg);
    std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", run.runs, run.seconds,
                run.runs / run.seconds);
    sweep_identical =
        sweep_identical && run.csv == serial.csv && run.json == serial.json;
    sweep_runs.push_back(run);
  }
  const CampaignRun& parallel = sweep_runs.back();
  const double speedup = serial.seconds / parallel.seconds;
  std::printf("  speedup vs --jobs 1: %.2fx\n", speedup);

  bool ok = report_identity("fault-free", serial, parallel) && sweep_identical;
  if (!sweep_identical) std::printf("[FAIL] jobs sweep reports differ\n");

  // Same comparison with fault injection: each cell's fault RNG must fork
  // from the campaign seed by cell index, never by execution order.
  greengpu::CampaignConfig faulted_serial = serial_cfg;
  faulted_serial.options.faults = benign_faults();
  greengpu::CampaignConfig faulted_parallel = parallel_cfg;
  faulted_parallel.options.faults = benign_faults();
  std::printf("re-running with fault injection (benign channels)...\n");
  const CampaignRun f_serial = run_campaign_timed(faulted_serial);
  const CampaignRun f_parallel = run_campaign_timed(faulted_parallel);
  ok = report_identity("fault-injected", f_serial, f_parallel) && ok;

  // Batch engine vs scalar engine on the shape the batch engine targets:
  // a fault-replicate sweep (every policy expanded into kReplicates seeded
  // copies) with a fault-free warm-up window, so the engine can memoize one
  // verification per workload and fork replicates from a shared prefix
  // snapshot.  Same-host, same-config, so the speedup is comparable on any
  // machine; the reports must be byte-identical at every --jobs value.
  constexpr std::size_t kReplicates = 6;
  constexpr std::size_t kWarmup = 4;
  greengpu::CampaignConfig sweep_scalar;
  sweep_scalar.jobs = 1;
  sweep_scalar.engine = greengpu::CampaignEngine::kScalar;
  sweep_scalar.fault_replicates = kReplicates;
  sweep_scalar.options.faults = benign_faults();
  sweep_scalar.options.faults_active_from = kWarmup;
  std::printf("running replicate sweep (x%zu) with the scalar engine...\n", kReplicates);
  const CampaignRun b_scalar = run_campaign_timed(sweep_scalar);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", b_scalar.runs, b_scalar.seconds,
              b_scalar.runs / b_scalar.seconds);
  greengpu::CampaignConfig sweep_batch = sweep_scalar;
  sweep_batch.engine = greengpu::CampaignEngine::kBatch;
  std::printf("running replicate sweep (x%zu) with the batch engine...\n", kReplicates);
  const CampaignRun b_batch = run_campaign_timed(sweep_batch);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", b_batch.runs, b_batch.seconds,
              b_batch.runs / b_batch.seconds);
  const double batch_speedup = b_batch.seconds > 0.0 ? b_scalar.seconds / b_batch.seconds : 0.0;
  std::printf("  batch engine speedup vs scalar: %.2fx\n", batch_speedup);
  ok = report_identity("batch-vs-scalar", b_scalar, b_batch) && ok;
  bool batch_jobs_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = sweep_batch;
    cfg.jobs = jobs_sweep[i];
    const CampaignRun run = run_campaign_timed(cfg);
    batch_jobs_identical =
        batch_jobs_identical && run.csv == b_batch.csv && run.json == b_batch.json;
  }
  std::printf("[%s] batch engine across jobs sweep: %s\n",
              batch_jobs_identical ? "OK" : "FAIL",
              batch_jobs_identical ? "identical" : "DIFFER");
  ok = batch_jobs_identical && ok;
  // Row wall times at the widest --jobs value: the sweep's shape.
  greengpu::CampaignConfig rows_cfg = sweep_batch;
  rows_cfg.jobs = jobs_sweep.back();
  const std::vector<RowWall> rows = time_rows(rows_cfg);
  const RowWall longest_row = *std::max_element(
      rows.begin(), rows.end(), [](const RowWall& a, const RowWall& b) { return a.ms < b.ms; });
  std::printf("  row wall times at --jobs %zu:", jobs_sweep.back());
  for (const RowWall& r : rows) std::printf(" %s %.0f ms", r.workload.c_str(), r.ms);
  std::printf("; longest %s\n", longest_row.workload.c_str());

  // Pipeline workloads: the asynchronous multi-stream schedule vs the
  // synchronous baseline, in simulated seconds and joules (both sides run
  // through the same model, so the speedup holds on any host class), plus
  // the full determinism matrix over the pipeline campaign — jobs sweep,
  // batch engine, and a kill/resume cycle must all reproduce the bytes.
  const workloads::PipelineTuning saved_tuning = workloads::pipeline_tuning();
  std::printf("comparing pipelined vs synchronous schedules...\n");
  std::vector<PipelineComparison> pipeline_runs;
  double min_pipeline_speedup = 0.0;
  double min_overlap_efficiency = 0.0;
  bool pipeline_verified = true;
  bool pipeline_energy_lower = true;
  for (const std::string& name : workloads::pipeline_workload_names()) {
    const PipelineComparison c = compare_pipeline(name);
    std::printf("  %-16s sync %.1f s -> pipelined %.1f s (%.2fx), "
                "energy %.0f J -> %.0f J, overlap %.0f%%%s\n",
                c.name.c_str(), c.sync_seconds, c.pipelined_seconds,
                c.makespan_speedup, c.sync_energy_j, c.pipelined_energy_j,
                c.overlap_efficiency * 100.0, c.verified ? "" : " [FAIL verify]");
    min_pipeline_speedup = pipeline_runs.empty()
                               ? c.makespan_speedup
                               : std::min(min_pipeline_speedup, c.makespan_speedup);
    min_overlap_efficiency = pipeline_runs.empty()
                                 ? c.overlap_efficiency
                                 : std::min(min_overlap_efficiency, c.overlap_efficiency);
    pipeline_verified = pipeline_verified && c.verified;
    pipeline_energy_lower =
        pipeline_energy_lower && c.pipelined_energy_j < c.sync_energy_j;
    pipeline_runs.push_back(c);
  }
  workloads::set_pipeline_tuning(saved_tuning);
  ok = pipeline_verified && pipeline_energy_lower && ok;

  greengpu::CampaignConfig pipeline_cfg;
  pipeline_cfg.workloads = workloads::pipeline_workload_names();
  pipeline_cfg.jobs = 1;
  std::printf("running pipeline campaign serially (--jobs 1)...\n");
  const CampaignRun p_serial = run_campaign_timed(pipeline_cfg);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", p_serial.runs, p_serial.seconds,
              p_serial.runs / p_serial.seconds);
  bool pipeline_jobs_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = pipeline_cfg;
    cfg.jobs = jobs_sweep[i];
    const CampaignRun run = run_campaign_timed(cfg);
    pipeline_jobs_identical =
        pipeline_jobs_identical && run.csv == p_serial.csv && run.json == p_serial.json;
  }
  std::printf("[%s] pipeline campaign across jobs sweep: %s\n",
              pipeline_jobs_identical ? "OK" : "FAIL",
              pipeline_jobs_identical ? "identical" : "DIFFER");
  ok = pipeline_jobs_identical && ok;

  greengpu::CampaignConfig pipeline_batch_cfg = pipeline_cfg;
  pipeline_batch_cfg.engine = greengpu::CampaignEngine::kBatch;
  const CampaignRun p_batch = run_campaign_timed(pipeline_batch_cfg);
  const bool pipeline_engines_identical =
      p_batch.csv == p_serial.csv && p_batch.json == p_serial.json;
  std::printf("[%s] pipeline campaign batch-vs-scalar: %s\n",
              pipeline_engines_identical ? "OK" : "FAIL",
              pipeline_engines_identical ? "identical" : "DIFFER");
  ok = pipeline_engines_identical && ok;

  bool pipeline_resume_identical = false;
  {
    const std::filesystem::path resume_dir =
        std::filesystem::temp_directory_path() / "gg_bench_pipeline_resume";
    std::filesystem::remove_all(resume_dir);
    greengpu::CheckpointOptions ckpt;
    ckpt.dir = resume_dir.string();
    sim::CrashInjector crash(common::KillPoint::kMidCampaignCell, 1,
                             common::CrashMode::kThrow);
    greengpu::RecoverySupervisor supervisor(pipeline_cfg, ckpt);
    const CampaignRun resumed = to_run(supervisor.run(), 0.0);
    pipeline_resume_identical = crash.fired() && resumed.csv == p_serial.csv &&
                                resumed.json == p_serial.json;
    std::filesystem::remove_all(resume_dir);
  }
  std::printf("[%s] pipeline campaign after kill/resume: %s\n",
              pipeline_resume_identical ? "OK" : "FAIL",
              pipeline_resume_identical ? "identical" : "DIFFER");
  ok = pipeline_resume_identical && ok;

  // Checkpoint overhead: the same serial campaign with the crash-safe
  // journal alone (--checkpoint-every 0) and with periodic controller
  // snapshots every 10 and 100 iterations.  Checkpoints are pure
  // observation, so all three reports must stay byte-identical to the
  // plain run measured above.
  std::printf("measuring checkpoint overhead (journal + periodic snapshots)...\n");
  const std::filesystem::path ckpt_root =
      std::filesystem::temp_directory_path() / "gg_bench_checkpoint";
  std::filesystem::remove_all(ckpt_root);
  double ckpt_seconds[3] = {0.0, 0.0, 0.0};
  bool ckpt_identical = true;
  const std::size_t cadences[3] = {0, 10, 100};
  for (int i = 0; i < 3; ++i) {
    greengpu::CheckpointOptions ckpt;
    ckpt.dir = (ckpt_root / ("every-" + std::to_string(cadences[i]))).string();
    ckpt.every = cadences[i];
    const CampaignRun run = run_campaign_checkpointed_timed(serial_cfg, ckpt);
    ckpt_seconds[i] = run.seconds;
    ckpt_identical = ckpt_identical && run.csv == serial.csv && run.json == serial.json;
    std::printf("  --checkpoint-every %-3zu %.2f s (%+.1f%% vs plain serial)\n",
                cadences[i], run.seconds,
                (run.seconds / serial.seconds - 1.0) * 100.0);
  }
  std::filesystem::remove_all(ckpt_root);
  std::printf("[%s] checkpointed reports vs plain run: %s\n",
              ckpt_identical ? "OK" : "FAIL",
              ckpt_identical ? "identical" : "DIFFER");
  ok = ckpt_identical && ok;

  std::printf("timing sim::EventQueue hot paths...\n");
  const QueueTimings q = time_event_queue();
  std::printf("  schedule+fire:        %.1f ns/event\n", q.schedule_fire_ns);
  std::printf("  schedule+cancel+fire: %.1f ns/event\n", q.schedule_cancel_fire_ns);
  std::printf("  cancel churn:         %.1f ns/op (%llu compactions)\n", q.cancel_churn_ns,
              static_cast<unsigned long long>(q.compactions));

  std::printf("timing scaler step (fast path vs straight-line oracle)...\n");
  const ScalerTimings s = time_scaler_step();
  std::printf("  fast path:  %.1f ns/step\n", s.fast_ns);
  std::printf("  reference:  %.1f ns/step\n", s.reference_ns);
  std::printf("[%s] scaler fast-vs-reference: %.2fx speedup, decisions %s\n",
              s.decisions_match ? "OK" : "FAIL", s.speedup,
              s.decisions_match ? "identical" : "DIFFER");
  ok = s.decisions_match && ok;

  std::printf("timing nbody and QG kernels (one thread)...\n");
  const KernelTimings k = time_kernels();
  std::printf("  nbody:       %.2f ns/interaction\n", k.nbody_ns_per_interaction);
  std::printf("  Sobol fill:  %.2f ns/sample\n", k.fill_ns_per_sample);
  std::printf("  Sobol sample: %.2f ns/sample\n", k.sample_ns_per_sample);
  std::printf("[%s] kernel fast paths: fill %.1fx faster than sample, bits %s\n",
              k.identical ? "OK" : "FAIL", k.fill_speedup,
              k.identical ? "identical" : "DIFFER");
  ok = k.identical && ok;

  std::printf("timing the nbody and kmeans verify() references...\n");
  bool verify_identical = true;
  std::vector<VerifyTiming> verify_runs;
  const std::size_t verify_workers = host_cpus ? host_cpus : 1;
  double min_verify_speedup = 0.0;
  for (const char* name : {"nbody", "kmeans"}) {
    const VerifyTiming v = time_verify(name, verify_workers, verify_identical);
    std::printf("  %-7s 1 worker %.1f ms, %zu workers %.1f ms (%.2fx)\n", v.workload.c_str(),
                v.one_worker_ms, verify_workers, v.pooled_ms, v.speedup);
    min_verify_speedup =
        verify_runs.empty() ? v.speedup : std::min(min_verify_speedup, v.speedup);
    verify_runs.push_back(v);
  }
  std::printf("[%s] references verify on both pools and reject a perturbed run: %s\n",
              verify_identical ? "OK" : "FAIL", verify_identical ? "yes" : "NO");
  ok = verify_identical && ok;

  std::printf("timing the CPU governor tick (model-only kmeans cell)...\n");
  const GovernorTimings g = time_governor();
  std::printf("  with ondemand %.2f ms, without %.2f ms, %llu decisions: %.1f ns/tick\n",
              g.cell_ms, g.no_governor_cell_ms, static_cast<unsigned long long>(g.decisions),
              g.ns_per_tick);
  std::printf("[%s] attached governor vs heap-driven steps: %s\n",
              g.identical_to_heap_driven ? "OK" : "FAIL",
              g.identical_to_heap_driven ? "identical" : "DIFFER");
  ok = g.identical_to_heap_driven && ok;

  std::ofstream out(out_file);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 2;
  }
  JsonWriter w(out);
  w.begin_object();
  w.kv("host_cpus", static_cast<double>(host_cpus));
  w.kv("jobs", static_cast<double>(jobs));
  w.kv("single_core_host", single_core_host);
  w.key("campaign");
  w.begin_object();
  w.kv("runs", static_cast<double>(serial.runs));
  w.kv("serial_seconds", serial.seconds);
  w.kv("parallel_seconds", parallel.seconds);
  w.kv("serial_runs_per_sec", serial.runs / serial.seconds);
  w.kv("parallel_runs_per_sec", parallel.runs / parallel.seconds);
  w.kv("speedup_vs_jobs1", speedup);
  w.key("jobs_sweep");
  w.begin_array();
  for (std::size_t i = 0; i < sweep_runs.size(); ++i) {
    w.begin_object();
    w.kv("jobs", static_cast<double>(jobs_sweep[i]));
    w.kv("seconds", sweep_runs[i].seconds);
    w.kv("runs_per_sec", sweep_runs[i].runs / sweep_runs[i].seconds);
    w.end_object();
  }
  w.end_array();
  w.kv("identical_reports",
       sweep_identical && serial.csv == parallel.csv && serial.json == parallel.json);
  w.kv("identical_reports_with_faults",
       f_serial.csv == f_parallel.csv && f_serial.json == f_parallel.json);
  w.end_object();
  w.key("batch");
  w.begin_object();
  w.kv("runs", static_cast<double>(b_scalar.runs));
  w.kv("fault_replicates", static_cast<double>(kReplicates));
  w.kv("warmup_iterations", static_cast<double>(kWarmup));
  w.kv("scalar_seconds", b_scalar.seconds);
  w.kv("batch_seconds", b_batch.seconds);
  w.kv("scalar_runs_per_sec", b_scalar.runs / b_scalar.seconds);
  w.kv("batch_runs_per_sec", b_batch.runs / b_batch.seconds);
  w.kv("speedup_vs_scalar", batch_speedup);
  w.kv("identical_reports", b_scalar.csv == b_batch.csv && b_scalar.json == b_batch.json);
  w.kv("identical_reports_across_jobs", batch_jobs_identical);
  w.kv("rows_jobs", static_cast<double>(jobs_sweep.back()));
  w.key("rows");
  w.begin_array();
  for (const RowWall& r : rows) {
    w.begin_object();
    w.kv("workload", r.workload);
    w.kv("ms", r.ms);
    w.end_object();
  }
  w.end_array();
  w.kv("longest_row", longest_row.workload);
  w.kv("longest_row_ms", longest_row.ms);
  w.end_object();
  w.key("pipeline");
  w.begin_object();
  w.key("workloads");
  w.begin_array();
  for (const PipelineComparison& c : pipeline_runs) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("sync_seconds", c.sync_seconds);
    w.kv("pipelined_seconds", c.pipelined_seconds);
    w.kv("makespan_speedup", c.makespan_speedup);
    w.kv("sync_energy_j", c.sync_energy_j);
    w.kv("pipelined_energy_j", c.pipelined_energy_j);
    w.kv("overlap_efficiency", c.overlap_efficiency);
    w.kv("verified", c.verified);
    w.end_object();
  }
  w.end_array();
  w.kv("min_makespan_speedup", min_pipeline_speedup);
  w.kv("min_overlap_efficiency", min_overlap_efficiency);
  w.kv("all_verified", pipeline_verified);
  w.kv("pipelined_energy_lower", pipeline_energy_lower);
  w.kv("campaign_runs", static_cast<double>(p_serial.runs));
  w.kv("campaign_seconds", p_serial.seconds);
  w.kv("campaign_runs_per_sec", p_serial.runs / p_serial.seconds);
  w.kv("identical_reports_across_jobs", pipeline_jobs_identical);
  w.kv("identical_reports_across_engines", pipeline_engines_identical);
  w.kv("identical_reports_after_resume", pipeline_resume_identical);
  w.end_object();
  w.key("event_queue");
  w.begin_object();
  w.kv("schedule_fire_ns_per_event", q.schedule_fire_ns);
  w.kv("schedule_cancel_fire_ns_per_event", q.schedule_cancel_fire_ns);
  w.kv("cancel_churn_ns_per_op", q.cancel_churn_ns);
  w.kv("churn_compactions", static_cast<double>(q.compactions));
  w.kv("events_fired_checksum", static_cast<double>(q.events_fired));
  w.end_object();
  w.key("scaler");
  w.begin_object();
  w.kv("steps", static_cast<double>(s.steps));
  w.kv("fast_ns_per_step", s.fast_ns);
  w.kv("reference_ns_per_step", s.reference_ns);
  w.kv("speedup_fast_vs_reference", s.speedup);
  w.kv("decisions_identical", s.decisions_match);
  w.end_object();
  w.key("kernels");
  w.begin_object();
  w.kv("nbody_ns_per_interaction", k.nbody_ns_per_interaction);
  w.kv("sobol_fill_ns_per_sample", k.fill_ns_per_sample);
  w.kv("sobol_sample_ns_per_sample", k.sample_ns_per_sample);
  w.kv("sobol_fill_speedup_vs_sample", k.fill_speedup);
  w.kv("identical", k.identical);
  w.end_object();
  w.key("verify");
  w.begin_object();
  w.kv("workers", static_cast<double>(verify_workers));
  for (const VerifyTiming& v : verify_runs) {
    w.kv(v.workload + "_one_worker_ms", v.one_worker_ms);
    w.kv(v.workload + "_pooled_ms", v.pooled_ms);
    w.kv(v.workload + "_speedup", v.speedup);
  }
  w.kv("min_speedup", min_verify_speedup);
  w.kv("identical", verify_identical);
  w.end_object();
  w.key("governor");
  w.begin_object();
  w.kv("kmeans_cell_ms", g.cell_ms);
  w.kv("kmeans_no_governor_cell_ms", g.no_governor_cell_ms);
  w.kv("decisions", static_cast<double>(g.decisions));
  w.kv("ns_per_tick", g.ns_per_tick);
  w.kv("identical_to_heap_driven", g.identical_to_heap_driven);
  w.end_object();
  w.key("checkpoint");
  w.begin_object();
  w.kv("every_0_seconds", ckpt_seconds[0]);
  w.kv("every_10_seconds", ckpt_seconds[1]);
  w.kv("every_100_seconds", ckpt_seconds[2]);
  w.kv("overhead_every_0", ckpt_seconds[0] / serial.seconds - 1.0);
  w.kv("overhead_every_10", ckpt_seconds[1] / serial.seconds - 1.0);
  w.kv("overhead_every_100", ckpt_seconds[2] / serial.seconds - 1.0);
  w.kv("journaled_reports_identical", ckpt_identical);
  w.end_object();
  w.end_object();
  out << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return ok ? 0 : 1;
}
