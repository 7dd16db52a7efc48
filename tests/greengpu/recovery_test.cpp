#include "src/greengpu/recovery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/snapshot.h"
#include "src/cudalite/api.h"
#include "src/greengpu/division.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"
#include "tests/greengpu/checkpoint_files.h"

namespace gg::greengpu {
namespace {

using common::KillPoint;
using common::SnapshotError;
using test::read_row_checkpoint;
using test::read_run_checkpoint;

/// Fresh per-test scratch directory (named after the running test, so
/// parallel ctest jobs never collide; wiped on entry).
std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("gg_") + info->test_suite_name() + "_" + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Two workloads x (baseline, scaling) — the smallest campaign that
/// exercises the scaler kill-points.  With faults, both policies are
/// hardened (un-hardened policies DNF by design on a faulty platform).
CampaignConfig small_config(bool faults) {
  CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  Policy baseline = Policy::best_performance();
  Policy scaling = Policy::scaling_only();
  if (faults) {
    cfg.options.faults.seed = 1234;
    cfg.options.faults.util_drop_rate = 0.02;
    cfg.options.faults.launch_fail_rate = 0.01;
    baseline.params.hardening.enabled = true;
    scaling.params.hardening.enabled = true;
  }
  cfg.policies = {baseline, scaling};
  cfg.options.pool_workers = 2;
  return cfg;
}

/// The full report surface: byte-identical CSV + JSON is the headline
/// crash-consistency guarantee.
std::string report(const CampaignResult& r) {
  std::ostringstream csv;
  std::ostringstream json;
  write_campaign_csv(csv, r);
  write_campaign_json(json, r);
  return csv.str() + "\n" + json.str();
}

TEST(Recovery, DisabledCheckpointingFallsBackToPlainCampaign) {
  const CampaignConfig cfg = small_config(false);
  const CheckpointOptions off{};
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, off)), report(run_campaign(cfg)));
}

TEST(Recovery, UninterruptedCheckpointedRunMatchesPlain) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = 5;
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
  EXPECT_TRUE(std::filesystem::exists(dir / "campaign.journal"));
  // The scalar engine's rows are one cell wide: cell 1 (pathfinder under
  // scaling, 60 iterations) has its own row file, holding its record at the
  // last multiple of 5.
  const auto row = read_row_checkpoint((dir / "row-1.ggsn").string());
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), 1u);
  ASSERT_EQ(row->count(1), 1u);
  EXPECT_EQ(row->at(1).iteration, 60u);
  EXPECT_GT(row->at(1).sim_time, 0.0);
  EXPECT_TRUE(row->at(1).has_scaler);
  EXPECT_FALSE(row->at(1).has_divider);
}

TEST(Recovery, CheckpointCadenceNeverChangesReports) {
  // Checkpoints are pure observation: any cadence, same bytes.
  const CampaignConfig cfg = small_config(false);
  const std::filesystem::path dir = test_dir();
  std::vector<std::string> reports;
  for (const std::size_t every : {std::size_t{0}, std::size_t{3}, std::size_t{50}}) {
    CheckpointOptions ckpt;
    ckpt.dir = (dir / ("every-" + std::to_string(every))).string();
    ckpt.every = every;
    reports.push_back(report(run_campaign_checkpointed(cfg, ckpt)));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

// The headline guarantee: a campaign killed at ANY kill-point and resumed
// reports byte-identical CSV/JSON to an uninterrupted run — with and
// without fault injection, serial and parallel.
TEST(Recovery, KillAndResumeIsByteIdenticalAtEveryKillPoint) {
  struct Kill {
    KillPoint point;
    std::uint64_t nth;
  };
  const Kill kills[] = {
      {KillPoint::kPreScalerStep, 1},
      {KillPoint::kPostScalerStep, 5},
      {KillPoint::kMidCheckpoint, 1},
      {KillPoint::kMidCampaignCell, 2},
  };
  const std::filesystem::path dir = test_dir();
  std::size_t case_index = 0;
  for (const bool faults : {false, true}) {
    CampaignConfig cfg = small_config(faults);
    const std::string golden = report(run_campaign(cfg));
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
      cfg.jobs = jobs;
      for (const Kill& kill : kills) {
        SCOPED_TRACE(std::string("kill-point ") +
                     std::string(common::to_string(kill.point)) + ":" +
                     std::to_string(kill.nth) + " faults=" + (faults ? "on" : "off") +
                     " jobs=" + std::to_string(jobs));
        CheckpointOptions ckpt;
        ckpt.dir = (dir / ("case-" + std::to_string(case_index++))).string();
        sim::CrashInjector crash(kill.point, kill.nth, common::CrashMode::kThrow);
        RecoverySupervisor supervisor(cfg, ckpt);
        const CampaignResult resumed = supervisor.run();
        EXPECT_TRUE(crash.fired());
        EXPECT_GE(supervisor.restarts(), 1);
        EXPECT_EQ(report(resumed), golden);
      }
    }
  }
}

TEST(Recovery, CrashInsideRowSnapshotWriteKeepsPreviousRowAndResumes) {
  // The journal hosts the same kill-point as the snapshot writer, so a dry
  // run over the hit index finds the first kill that lands inside a row
  // file's rewrite — a `.tmp` beside the row's previous good file.
  const std::filesystem::path root = test_dir();
  CampaignConfig cfg = small_config(false);
  cfg.engine = CampaignEngine::kBatch;
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.every = 3;
  std::filesystem::path torn;
  for (std::uint64_t nth = 1; torn.empty(); ++nth) {
    ckpt.dir = (root / ("hit-" + std::to_string(nth))).string();
    sim::CrashInjector crash(KillPoint::kMidCheckpoint, nth, common::CrashMode::kThrow);
    try {
      (void)run_campaign_checkpointed(cfg, ckpt);
    } catch (const common::CrashInjected&) {
    }
    ASSERT_TRUE(crash.fired()) << "no kill-point hit landed in a row rewrite";
    for (const auto& entry : std::filesystem::directory_iterator(ckpt.dir)) {
      const std::filesystem::path& p = entry.path();
      if (p.extension() == ".tmp" && std::filesystem::exists(p.parent_path() / p.stem())) {
        torn = p;
      }
    }
  }
  const std::filesystem::path good = torn.parent_path() / torn.stem();
  EXPECT_EQ(good.filename().string().rfind("row-", 0), 0u) << good;
  const auto records = read_row_checkpoint(good.string());
  ASSERT_TRUE(records.has_value()) << good;
  EXPECT_FALSE(records->empty());

  ckpt.resume = true;
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
}

/// Every snapshot file of a checkpoint directory, name -> bytes.
std::map<std::string, std::string> snapshot_files(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ggsn") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = {std::istreambuf_iterator<char>(in),
                                               std::istreambuf_iterator<char>()};
  }
  return files;
}

TEST(Recovery, ResumedRowKeepsItsJournaledCellsRecords) {
  // kBatch rows are whole workload rows.  Killing the second cell after it
  // finished but before it was journaled leaves row 0 with cell 0 journaled
  // and cell 1 pending; the resumed run re-runs only cell 1, and its row
  // rewrite must keep cell 0's record.  So the snapshot files end up
  // byte-identical to an uninterrupted run's.
  const std::filesystem::path root = test_dir();
  CampaignConfig cfg = small_config(false);
  cfg.engine = CampaignEngine::kBatch;
  CheckpointOptions ckpt;
  ckpt.every = 5;
  ckpt.dir = (root / "plain").string();
  const std::string golden = report(run_campaign_checkpointed(cfg, ckpt));
  const auto want = snapshot_files(ckpt.dir);
  ASSERT_EQ(want.size(), 2u);
  ASSERT_EQ(want.count("row-0.ggsn"), 1u);

  ckpt.dir = (root / "resumed").string();
  {
    sim::CrashInjector crash(KillPoint::kMidCampaignCell, 2, common::CrashMode::kThrow);
    EXPECT_THROW((void)run_campaign_checkpointed(cfg, ckpt), common::CrashInjected);
  }
  ckpt.resume = true;
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
  const auto records = read_row_checkpoint((root / "resumed" / "row-0.ggsn").string());
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(snapshot_files(ckpt.dir), want);
}

TEST(Recovery, SupervisorGivesUpPastRestartBudget) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  // A zero-budget supervisor must rethrow the very first crash instead of
  // resuming.
  sim::CrashInjector crash(KillPoint::kMidCampaignCell, 1, common::CrashMode::kThrow);
  RecoverySupervisor supervisor(cfg, ckpt, /*max_restarts=*/0);
  EXPECT_THROW((void)supervisor.run(), common::CrashInjected);
  EXPECT_EQ(supervisor.restarts(), 0);
}

TEST(Recovery, SupervisorExhaustsItsBudgetAgainstAPersistentCrash) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  // The crash fires on every attempt (shots far beyond the budget): a
  // persistent fault.  The supervisor spends its whole budget, then rethrows
  // rather than looping forever.
  sim::CrashInjector crash(KillPoint::kMidCampaignCell, 1, common::CrashMode::kThrow,
                           /*shots=*/100);
  common::BackoffConfig backoff;
  RecoverySupervisor supervisor(cfg, ckpt, /*max_restarts=*/3, backoff);
  EXPECT_THROW((void)supervisor.run(), common::CrashInjected);
  EXPECT_EQ(supervisor.restarts(), 3);

  // The planned delays are exactly the backoff schedule: exponential with
  // deterministic jitter, replayable from the same config.
  const std::vector<Seconds>& delays = supervisor.restart_delays();
  ASSERT_EQ(delays.size(), 3u);
  common::ExponentialBackoff replay(backoff);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_DOUBLE_EQ(delays[i].get(), replay.next().get()) << "delay " << i;
  }
}

TEST(Recovery, SupervisorSurvivesExactlyAsManyCrashesAsItsBudget) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  // Two shots, budget two: the fault dies before the supervisor does, and
  // the survivor's report is still byte-identical.
  sim::CrashInjector crash(KillPoint::kMidCampaignCell, 1, common::CrashMode::kThrow,
                           /*shots=*/2);
  RecoverySupervisor supervisor(cfg, ckpt, /*max_restarts=*/2);
  EXPECT_EQ(report(supervisor.run()), golden);
  EXPECT_EQ(supervisor.restarts(), 2);
  EXPECT_EQ(supervisor.restart_delays().size(), 2u);
}

TEST(Recovery, HeaderOnlyJournalResumesFromScratch) {
  // Degenerate journal #1: a run killed before its first cell was journaled
  // leaves a header and nothing else.  Resume must treat it as "no progress"
  // and still converge to the golden bytes.
  const std::filesystem::path dir = test_dir();
  CampaignConfig cfg = small_config(false);
  cfg.workloads = {"pathfinder"};
  cfg.policies = {Policy::best_performance()};
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  {
    sim::CrashInjector crash(KillPoint::kMidCampaignCell, 1, common::CrashMode::kThrow);
    EXPECT_THROW((void)run_campaign_checkpointed(cfg, ckpt), common::CrashInjected);
  }
  const std::string journal = (dir / "campaign.journal").string();
  const CampaignPlan plan = plan_campaign(cfg);
  const std::uint64_t fp = CampaignJournal::fingerprint(plan, cfg.options);
  EXPECT_TRUE(CampaignJournal::read(journal, fp).empty());

  ckpt.resume = true;
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
}

TEST(Recovery, SingleCellCampaignKillsAndResumes) {
  // Degenerate journal #2: the smallest possible campaign, one cell.
  const std::filesystem::path dir = test_dir();
  CampaignConfig cfg = small_config(false);
  cfg.workloads = {"lud"};
  cfg.policies = {Policy::scaling_only()};
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  sim::CrashInjector crash(KillPoint::kPostScalerStep, 3, common::CrashMode::kThrow);
  RecoverySupervisor supervisor(cfg, ckpt);
  EXPECT_EQ(report(supervisor.run()), golden);
  EXPECT_TRUE(crash.fired());
}

TEST(Recovery, AllCellsCompleteResumeExecutesNothing) {
  // Degenerate journal #3: every cell already journaled.  Resume renders the
  // report straight from the journal; a kill-point armed at the very first
  // re-executed cell proves none runs.
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  (void)run_campaign_checkpointed(cfg, ckpt);

  ckpt.resume = true;
  sim::CrashInjector tripwire(KillPoint::kMidCampaignCell, 1, common::CrashMode::kThrow);
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
  EXPECT_FALSE(tripwire.fired()) << "a fully-journaled campaign re-ran a cell";
}

TEST(Recovery, JournalFingerprintMismatchRefusesResume) {
  const std::filesystem::path dir = test_dir();
  CampaignConfig cfg = small_config(false);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  (void)run_campaign_checkpointed(cfg, ckpt);

  // Same journal, different campaign: the fingerprint covers every option
  // a cell's results depend on, so resuming must refuse to mix results.
  cfg.options.max_iterations = 7;
  ckpt.resume = true;
  EXPECT_THROW((void)run_campaign_checkpointed(cfg, ckpt), SnapshotError);
}

TEST(Recovery, ForeignOrTruncatedJournalIsRejected) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  const CampaignPlan plan = plan_campaign(cfg);
  const std::uint64_t fp = CampaignJournal::fingerprint(plan, cfg.options);

  const std::string foreign = (dir / "foreign.journal").string();
  {
    // GG_LINT_ALLOW(checkpoint-write): planting a foreign file on purpose
    std::ofstream out(foreign, std::ios::binary);
    out << "this is not a campaign journal";
  }
  EXPECT_THROW((void)CampaignJournal::read(foreign, fp), SnapshotError);

  const std::string shorty = (dir / "short.journal").string();
  {
    // GG_LINT_ALLOW(checkpoint-write): planting a truncated header on purpose
    std::ofstream out(shorty, std::ios::binary);
    out << "GG";
  }
  EXPECT_THROW((void)CampaignJournal::read(shorty, fp), SnapshotError);
  EXPECT_THROW((void)CampaignJournal::read((dir / "missing.journal").string(), fp),
               SnapshotError);
}

TEST(Recovery, TornJournalTailIsTruncatedAndResumable) {
  const std::filesystem::path dir = test_dir();
  const CampaignConfig cfg = small_config(false);
  const std::string golden = report(run_campaign(cfg));
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  (void)run_campaign_checkpointed(cfg, ckpt);

  const std::string journal = (dir / "campaign.journal").string();
  const auto good_size = std::filesystem::file_size(journal);
  {
    // Half a record header: exactly what an append killed between its two
    // flushes leaves behind.
    // GG_LINT_ALLOW(checkpoint-write): simulating the torn append itself
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char torn[10] = {3, 0, 0, 0, 0, 0, 0, 0, 42, 42};
    out.write(torn, sizeof torn);
  }
  ASSERT_GT(std::filesystem::file_size(journal), good_size);

  const CampaignPlan plan = plan_campaign(cfg);
  const std::uint64_t fp = CampaignJournal::fingerprint(plan, cfg.options);
  const auto entries = CampaignJournal::read(journal, fp);
  EXPECT_EQ(entries.size(), plan.total());
  // read() dropped the torn tail in place.
  EXPECT_EQ(std::filesystem::file_size(journal), good_size);

  ckpt.resume = true;
  EXPECT_EQ(report(run_campaign_checkpointed(cfg, ckpt)), golden);
}

TEST(Recovery, RunCheckpointMetaRoundTripsAndRejectsCorruption) {
  const std::filesystem::path dir = test_dir();
  RunOptions options = campaign_default_options();
  options.max_iterations = 20;
  options.checkpoint_every = 10;
  options.checkpoint_dir = dir.string();
  options.checkpoint_tag = "probe";
  (void)run_experiment("pathfinder", Policy::scaling_only(), options);

  const std::string path = (dir / "probe.ggsn").string();
  const auto meta = read_run_checkpoint(path);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->iteration, 20u);
  EXPECT_GT(meta->sim_time, 0.0);
  EXPECT_TRUE(meta->has_scaler);
  EXPECT_FALSE(meta->has_divider);
  // The file frames exactly the engine's save_checkpoint record.
  EXPECT_EQ(meta->payload,
            test::expected_checkpoint("pathfinder", Policy::scaling_only(), options, 20));

  // Corrupt and missing files are a clean "no checkpoint", never a throw.
  std::filesystem::resize_file(path, 10);
  EXPECT_FALSE(read_run_checkpoint(path).has_value());
  EXPECT_FALSE(read_run_checkpoint((dir / "absent.ggsn").string()).has_value());
}

TEST(Recovery, DividerSaveLoadContinuesExactDecisionStream) {
  const DivisionParams params;
  DivisionController a(params);
  const auto feedback = [](int i) {
    IterationFeedback f;
    f.cpu_time = Seconds{1.0 + 0.05 * i};
    f.gpu_time = Seconds{1.6 - 0.03 * i};
    return f;
  };
  for (int i = 0; i < 8; ++i) (void)a.update(feedback(i));

  common::SnapshotWriter w;
  a.save(w);
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  DivisionController b(params);
  b.load(r);

  EXPECT_EQ(a.ratio(), b.ratio());
  EXPECT_EQ(a.decision_count(), b.decision_count());
  for (int i = 8; i < 24; ++i) {
    const DivisionDecision da = a.update(feedback(i));
    const DivisionDecision db = b.update(feedback(i));
    ASSERT_EQ(da.ratio, db.ratio) << "diverged at iteration " << i;
    ASSERT_EQ(da.action, db.action) << "diverged at iteration " << i;
  }
  EXPECT_EQ(a.converged(), b.converged());
}

TEST(Recovery, ScalerSnapshotRoundTripIsStable) {
  sim::Platform platform;
  cudalite::Runtime rt(platform, 2);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler a(nvml, settings, WmaParams{});
  for (int k = 0; k < 6; ++k) {
    platform.queue().run_until(platform.now() + Seconds{3.0});
    (void)a.step(platform.now());
  }

  common::SnapshotWriter first;
  a.save(first);
  GpuFrequencyScaler b(nvml, settings, WmaParams{});
  common::SnapshotReader r = common::SnapshotReader::from_payload(first.payload());
  b.load(r);
  common::SnapshotWriter second;
  b.save(second);
  // save -> load -> save is byte-stable: the snapshot captures the whole
  // learned state and nothing else.
  EXPECT_EQ(first.payload(), second.payload());
}

TEST(Recovery, ScalerLoadRejectsRetentionMismatch) {
  sim::Platform platform;
  cudalite::Runtime rt(platform, 2);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  GpuFrequencyScaler a(nvml, settings, WmaParams{});
  platform.queue().run_until(Seconds{3.0});
  (void)a.step(platform.now());
  common::SnapshotWriter w;
  a.save(w);

  GpuFrequencyScaler c(nvml, settings, WmaParams{});
  RecordOptions counters;
  counters.mode = RecordMode::kCounters;
  c.set_record(counters);
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(c.load(r), SnapshotError);
}

}  // namespace
}  // namespace gg::greengpu
