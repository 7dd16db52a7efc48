#include "src/greengpu/recovery.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <filesystem>
#include <mutex>
#include <optional>
#include <utility>

#include "src/common/killpoint.h"
#include "src/common/snapshot.h"
#include "src/greengpu/batch_engine.h"

namespace gg::greengpu {

namespace {

/// Pin glibc's mmap threshold at its 128 KiB default.  Left dynamic, the
/// first mapped block freed raises the threshold to that block's size, and
/// from then on a cell's large buffers (inputs and device copies, 128 KiB
/// to 1 MiB) are carved from the arena of the pool thread that runs the
/// cell and stay resident there once freed; the process's resident peak
/// then depends on which cells ran on which thread.  Pinned, each such
/// buffer is mapped when allocated and unmapped when freed, so the peak
/// follows the memory the running cells hold.  Process-wide; set once.
void map_large_blocks() {
#if defined(__GLIBC__)
  [[maybe_unused]] static const int pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

/// Journal magic "GGJL" + its own version, separate from the snapshot frame
/// version (the journal carries raw CRC-framed records, not GGSN frames).
constexpr common::Journal::Format kJournalFormat{/*magic=*/0x4C4A4747u,
                                                /*version=*/1};

/// Every setting of a plan policy a cell's results depend on (the name
/// alone would let a resume with --hardened, or another WMA parameter, mix
/// its cells with the journaled ones).
void write_policy(common::SnapshotWriter& w, const Policy& p) {
  w.str(p.name);
  w.b(p.division);
  w.u64(static_cast<std::uint64_t>(p.divider));
  w.b(p.gpu_scaling);
  w.u64(static_cast<std::uint64_t>(p.cpu_governor));
  w.f64(p.fixed_ratio);
  w.b(p.fixed_gpu_levels.has_value());
  if (p.fixed_gpu_levels) {
    w.u64(p.fixed_gpu_levels->first);
    w.u64(p.fixed_gpu_levels->second);
  }
  const GreenGpuParams& g = p.params;
  w.f64(g.wma.alpha_core);
  w.f64(g.wma.alpha_mem);
  w.f64(g.wma.phi);
  w.f64(g.wma.beta);
  w.f64(g.wma.interval.get());
  // Values that were settable once and are constants now keep their old
  // positions, so the fingerprint's bytes do not move: the scaler-only
  // hardening switch (never set), the ondemand thresholds and sampling
  // period, and the CPU-share bounds.
  w.b(false);
  w.f64(kOndemandUpThreshold);
  w.f64(kOndemandDownThreshold);
  w.f64(kGovernorInterval.get());
  w.f64(g.division.step);
  w.f64(g.division.initial_ratio);
  w.f64(kMinCpuShare);
  w.f64(kMaxCpuShare);
  w.b(g.division.safeguard);
  w.b(g.hardened);
}

/// The scalar fields of an ExperimentResult — everything the campaign
/// reports consume.  Per-record vectors (iterations, traces, decision logs)
/// are intentionally NOT journaled: campaigns run in counters-only
/// retention and their reports never read them.
void save_result(common::SnapshotWriter& w, const ExperimentResult& r) {
  w.str(r.workload);
  w.str(r.policy);
  w.f64(r.exec_time.get());
  w.f64(r.gpu_energy.get());
  w.f64(r.cpu_energy.get());
  w.f64(r.gpu_idle_power.get());
  w.f64(r.cpu_spin_energy.get());
  w.f64(r.cpu_spin_time.get());
  w.f64(r.cpu_credited_spin_time.get());
  w.f64(r.cpu_credited_spin_energy.get());
  w.f64(r.cpu_spin_power_lowest.get());
  w.f64(r.final_ratio);
  w.u64(static_cast<std::uint64_t>(r.convergence_iteration));
  w.b(r.verified);
  w.b(r.verify_skipped);
  w.u64(static_cast<std::uint64_t>(r.iteration_count));
  w.u64(r.scaler_decision_count);
  w.u64(r.governor_decision_count);
  w.u64(static_cast<std::uint64_t>(r.fault_event_count));
  w.u64(r.gpu_frequency_transitions);
  w.u64(static_cast<std::uint64_t>(r.degraded_iterations));
  w.u64(r.watchdog_trips);
}

ExperimentResult load_result(common::SnapshotReader& r) {
  ExperimentResult out;
  out.workload = r.str();
  out.policy = r.str();
  out.exec_time = Seconds{r.f64()};
  out.gpu_energy = Joules{r.f64()};
  out.cpu_energy = Joules{r.f64()};
  out.gpu_idle_power = Watts{r.f64()};
  out.cpu_spin_energy = Joules{r.f64()};
  out.cpu_spin_time = Seconds{r.f64()};
  out.cpu_credited_spin_time = Seconds{r.f64()};
  out.cpu_credited_spin_energy = Joules{r.f64()};
  out.cpu_spin_power_lowest = Watts{r.f64()};
  out.final_ratio = r.f64();
  out.convergence_iteration = static_cast<std::size_t>(r.u64());
  out.verified = r.b();
  out.verify_skipped = r.b();
  out.iteration_count = static_cast<std::size_t>(r.u64());
  out.scaler_decision_count = r.u64();
  out.governor_decision_count = r.u64();
  out.fault_event_count = static_cast<std::size_t>(r.u64());
  out.gpu_frequency_transitions = r.u64();
  out.degraded_iterations = static_cast<std::size_t>(r.u64());
  out.watchdog_trips = r.u64();
  r.expect_done();
  return out;
}

}  // namespace

std::uint64_t CampaignJournal::fingerprint(const CampaignPlan& plan,
                                           const RunOptions& options) {
  common::SnapshotWriter w;
  for (const auto& name : plan.workloads) w.str(name);
  for (const auto& policy : plan.policies) write_policy(w, policy);
  // Every option a cell's results depend on.  Host-side knobs that cannot
  // change simulated outcomes (pool_workers, retention mode, checkpoint
  // cadence) are deliberately excluded so resuming with different host
  // settings stays legal.
  w.u64(static_cast<std::uint64_t>(options.max_iterations));
  w.b(options.verify);
  w.b(options.sync_spin);
  // The Fig. 6c guard window, once a RunOptions field and now fixed at 0.5 s:
  // still written so existing journals resume and the layout is unchanged.
  w.f64(0.5);
  // The fault-warm-up boundary changes where the injector joins and so the
  // fault schedule; the execution *engine* is deliberately excluded — both
  // engines produce byte-identical results, so a campaign journaled under
  // one may resume under the other.
  w.u64(static_cast<std::uint64_t>(options.faults_active_from));
  const sim::FaultConfig& f = options.faults;
  w.u64(f.seed);
  w.f64(f.util_drop_rate);
  w.f64(f.util_stale_rate);
  w.f64(f.util_corrupt_rate);
  w.f64(f.clock_reject_rate);
  w.f64(f.clock_delay_rate);
  w.f64(f.clock_delay.get());
  w.f64(f.clock_clamp_rate);
  w.f64(f.launch_fail_rate);
  w.f64(f.host_fail_rate);
  w.f64(f.throttle_mtbf.get());
  w.f64(f.throttle_duration.get());
  const auto& payload = w.payload();
  return static_cast<std::uint64_t>(payload.size()) << 32 |
         common::crc32(payload.data(), payload.size());
}

std::vector<CampaignJournal::Entry> CampaignJournal::read(const std::string& path,
                                                          std::uint64_t fingerprint) {
  std::vector<Entry> entries;
  for (auto& record : common::Journal::read(path, kJournalFormat, fingerprint)) {
    try {
      auto reader = common::SnapshotReader::from_payload(
          std::move(record.payload),
          path + " record at byte " + std::to_string(record.offset));
      Entry e;
      e.cell_index = static_cast<std::size_t>(record.tag);
      e.result = load_result(reader);
      entries.push_back(std::move(e));
    } catch (const common::SnapshotError&) {
      // Schema disagreement: trust nothing from here on.  Drop this record
      // and everything after it so the next append starts on a boundary the
      // current schema wrote.
      common::Journal::truncate_to(path, record.offset);
      break;
    }
  }
  return entries;
}

CampaignJournal::CampaignJournal(std::string path, std::uint64_t fingerprint, bool fresh)
    : journal_(std::move(path), kJournalFormat, fingerprint, fresh) {}

void CampaignJournal::append(std::size_t cell_index, const ExperimentResult& result) {
  common::SnapshotWriter w;
  save_result(w, result);
  journal_.append(static_cast<std::uint64_t>(cell_index), w.payload());
}

CampaignResult run_campaign_checkpointed(const CampaignConfig& config,
                                         const CheckpointOptions& ckpt,
                                         const CampaignProgress& progress) {
  map_large_blocks();
  const CampaignPlan plan = plan_campaign(config);
  CampaignResult out;
  out.workloads = plan.workloads;
  for (const auto& p : plan.policies) out.policy_names.push_back(p.name);
  const std::size_t policy_count = plan.policies.size();
  const std::size_t total = plan.total();
  out.cells.resize(total);

  // Every cell is an independent simulation on a fresh Platform.  Results
  // land in index-determined slots and savings are computed in a
  // deterministic post-pass, so the report is byte-identical for any `jobs`
  // value, either engine, and any kill/resume history.
  BatchCampaignEngine engine(plan, config.options, config.jobs, config.engine, ckpt);
  BatchCampaignEngine::Hooks hooks;
  std::size_t completed = 0;
  std::optional<CampaignJournal> journal;
  if (ckpt.enabled()) {
    std::filesystem::create_directories(ckpt.dir);
    const std::string journal_path = ckpt.dir + "/campaign.journal";
    const std::uint64_t fp = CampaignJournal::fingerprint(plan, config.options);
    std::vector<char> done(total, 0);
    const bool resuming = ckpt.resume && std::filesystem::exists(journal_path);
    if (resuming) {
      for (auto& entry : CampaignJournal::read(journal_path, fp)) {
        if (entry.cell_index < total && !done[entry.cell_index]) {
          out.cells[entry.cell_index].result = std::move(entry.result);
          done[entry.cell_index] = 1;
          ++completed;
        }
      }
    }
    journal.emplace(journal_path, fp, /*fresh=*/!resuming);
    engine.skip_completed(std::move(done));
  }

  // The engine publishes each cell through on_done in flat-index order
  // within a row; the journal append is index-tagged, so append order across
  // rows doesn't matter.
  std::mutex mutex;
  hooks.on_done = [&](std::size_t i, const ExperimentResult& result) {
    // The cell finished but is not journaled yet: a kill here loses it (and
    // the not-yet-published rest of its row), and the resume re-runs the
    // pending cells bit-identically.
    if (journal) common::killpoint(common::KillPoint::kMidCampaignCell);
    std::lock_guard<std::mutex> lock(mutex);
    if (journal) journal->append(i, result);
    ++completed;
    if (progress) {
      progress(plan.workloads[i / policy_count], plan.policies[i % policy_count].name,
               completed, total);
    }
  };
  engine.run(out.cells, hooks);

  finalize_campaign_savings(out);
  return out;
}

}  // namespace gg::greengpu
