#include "src/greengpu/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/greengpu/recovery.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"
#include "tests/greengpu/checkpoint_files.h"
#include "tests/greengpu/crash_and_resume.h"

namespace gg::greengpu {
namespace {

using common::KillPoint;

std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("gg_") + info->test_suite_name() + "_" + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  cfg.policies = {Policy::best_performance(), Policy::scaling_only()};
  cfg.options.pool_workers = 2;
  return cfg;
}

/// Fault channels that perturb controller inputs without aborting runs, so
/// un-hardened policies still finish and verify.
CampaignConfig faulty_config() {
  CampaignConfig cfg = small_config();
  cfg.options.faults.seed = 1234;
  cfg.options.faults.util_drop_rate = 0.05;
  cfg.options.faults.util_stale_rate = 0.05;
  cfg.options.faults.util_corrupt_rate = 0.02;
  cfg.options.faults.clock_reject_rate = 0.05;
  return cfg;
}

/// Fault-seed sweep whose replicates share a warm-up prefix: the batch
/// engine's prefix-fork path engages (stride > 1, warm-up > 0).
CampaignConfig replicate_config() {
  CampaignConfig cfg = faulty_config();
  cfg.workloads = {"lud"};
  cfg.fault_replicates = 3;
  cfg.options.faults_active_from = 4;
  return cfg;
}

/// The full report surface at a given engine/jobs combination.
std::string report(CampaignConfig cfg, CampaignEngine engine, std::size_t jobs) {
  cfg.engine = engine;
  cfg.jobs = jobs;
  const CampaignResult r = run_campaign(cfg);
  std::ostringstream csv;
  std::ostringstream json;
  write_campaign_csv(csv, r);
  write_campaign_json(json, r);
  return csv.str() + "\n" + json.str();
}

TEST(CampaignEngineNames, RoundTripAndRejection) {
  EXPECT_EQ(campaign_engine_from_string("scalar"), CampaignEngine::kScalar);
  EXPECT_EQ(campaign_engine_from_string("batch"), CampaignEngine::kBatch);
  EXPECT_FALSE(campaign_engine_from_string("vector").has_value());
  EXPECT_FALSE(campaign_engine_from_string("").has_value());
  EXPECT_FALSE(campaign_engine_from_string("Batch").has_value());
}

TEST(CampaignPlanReplicates, ExpansionNamesAndStride) {
  CampaignConfig cfg = replicate_config();
  const CampaignPlan plan = plan_campaign(cfg);
  ASSERT_EQ(plan.policies.size(), 6u);  // 2 policies x 3 seed replicates
  EXPECT_EQ(plan.replicate_stride, 3u);
  EXPECT_EQ(plan.policies[0].name, "best-performance#s0");
  EXPECT_EQ(plan.policies[2].name, "best-performance#s2");
  EXPECT_EQ(plan.policies[3].name, "frequency-scaling#s0");
  // Replicates differ only in name (the seed forks by flat cell index).
  EXPECT_EQ(plan.policies[3].params.hardened, plan.policies[5].params.hardened);
}

TEST(CampaignPlanReplicates, NoExpansionWithoutFaultsOrBelowTwo) {
  CampaignConfig no_faults = small_config();
  no_faults.fault_replicates = 3;
  EXPECT_EQ(plan_campaign(no_faults).policies.size(), 2u);
  EXPECT_EQ(plan_campaign(no_faults).replicate_stride, 1u);

  CampaignConfig one = faulty_config();
  one.fault_replicates = 1;
  EXPECT_EQ(plan_campaign(one).policies.size(), 2u);
  EXPECT_EQ(plan_campaign(one).replicate_stride, 1u);
}

// --- the headline guarantee: batch == scalar, byte for byte ---------------

TEST(BatchEngine, ReportsMatchScalar) {
  const std::string scalar = report(small_config(), CampaignEngine::kScalar, 1);
  EXPECT_EQ(scalar, report(small_config(), CampaignEngine::kBatch, 1));
  EXPECT_EQ(scalar, report(small_config(), CampaignEngine::kBatch, 4));
}

TEST(BatchEngine, ReportsMatchScalarUnderFaultInjection) {
  const std::string scalar = report(faulty_config(), CampaignEngine::kScalar, 1);
  EXPECT_EQ(scalar, report(faulty_config(), CampaignEngine::kBatch, 1));
  EXPECT_EQ(scalar, report(faulty_config(), CampaignEngine::kBatch, 4));
}

TEST(BatchEngine, ForkedReplicatesMatchColdStartedScalarCells) {
  // Scalar runs every replicate cold (full warm-up simulated per cell);
  // batch simulates the warm-up once per group and forks the rest from the
  // snapshot.  Identical bytes prove forked cell == cold-started cell.
  const std::string scalar = report(replicate_config(), CampaignEngine::kScalar, 1);
  EXPECT_EQ(scalar, report(replicate_config(), CampaignEngine::kBatch, 1));
  EXPECT_EQ(scalar, report(replicate_config(), CampaignEngine::kBatch, 4));
}

TEST(BatchEngine, ReplicatesDrawDistinctFaultSchedules) {
  // Guard the identity tests against vacuity: the replicates must actually
  // differ (distinct forked seeds -> distinct fault event streams).
  CampaignConfig cfg = replicate_config();
  cfg.engine = CampaignEngine::kBatch;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_EQ(r.cells.size(), 6u);
  // Cells 3..5 are frequency-scaling#s0..2 — the scaling tier samples
  // utilization and requests clocks, so the benign channels actually fire
  // there (best-performance never touches either, so its replicates are
  // legitimately identical).
  bool any_difference = false;
  for (std::size_t p = 4; p < 6; ++p) {
    if (r.cells[p].result.fault_event_count != r.cells[3].result.fault_event_count ||
        r.cells[p].result.total_energy().get() !=
            r.cells[3].result.total_energy().get()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
  EXPECT_TRUE(r.all_verified());
}

TEST(BatchEngine, StatsReportMemoizationAndForks) {
  CampaignConfig cfg = replicate_config();
  const CampaignPlan plan = plan_campaign(cfg);
  BatchCampaignEngine engine(plan, cfg.options, /*jobs=*/1);
  std::vector<CampaignCell> cells(plan.total());
  std::vector<std::size_t> done_order;
  BatchCampaignEngine::Hooks hooks;
  hooks.on_done = [&](std::size_t i, const ExperimentResult&) {
    done_order.push_back(i);
  };
  engine.run(cells, hooks);

  const BatchCampaignEngine::Stats& stats = engine.stats();
  // One verify donor per workload row; everything else ran model-only.
  EXPECT_EQ(stats.full_runs, 1u);
  EXPECT_EQ(stats.model_runs, plan.total() - 1);
  // Each 3-replicate group forks 2 cells from its warm-up snapshot.
  EXPECT_EQ(stats.forked_cells, 4u);
  EXPECT_EQ(stats.prefix_iterations_saved, 4u * cfg.options.faults_active_from);
  EXPECT_EQ(stats.references, 1u);
  // Publication within the row is flat-index order.
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(done_order, expected);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.result.verified);
    EXPECT_FALSE(cell.result.verify_skipped);
  }
}

TEST(BatchEngine, ScalarRowsRunEveryCellWithFullComputeAndNoForks) {
  // kScalar is the one-cell-row case: no verify memo, no prefix fork —
  // every cell computes and verifies itself, like run_experiment().
  for (const bool verify : {true, false}) {
    SCOPED_TRACE(verify ? "verify on" : "verify off");
    CampaignConfig cfg = replicate_config();
    cfg.options.verify = verify;
    const CampaignPlan plan = plan_campaign(cfg);
    BatchCampaignEngine engine(plan, cfg.options, /*jobs=*/1, CampaignEngine::kScalar);
    std::vector<CampaignCell> cells(plan.total());
    engine.run(cells);
    EXPECT_EQ(engine.stats().full_runs, plan.total());
    EXPECT_EQ(engine.stats().model_runs, 0u);
    EXPECT_EQ(engine.stats().forked_cells, 0u);
    EXPECT_EQ(engine.stats().prefix_iterations_saved, 0u);
    // The row's six verifying cells share one reference.
    EXPECT_EQ(engine.stats().references, verify ? 1u : 0u);
    for (const auto& cell : cells) {
      EXPECT_TRUE(cell.result.verified);
      EXPECT_EQ(cell.result.verify_skipped, !verify);
    }
  }
}

TEST(BatchEngine, TableIICampaignComputesOneReferencePerWorkload) {
  // The paper's 9 x 4 matrix: a scalar campaign's four policy cells of a
  // workload share one reference at any --jobs, a batch row computes one
  // for its donor, and every cell still verifies its own output.
  CampaignConfig cfg;
  cfg.options.pool_workers = 2;
  const CampaignPlan plan = plan_campaign(cfg);
  ASSERT_EQ(plan.total(), 36u);
  std::string first_report;
  for (const auto& [engine_kind, jobs] :
       {std::pair{CampaignEngine::kScalar, 1}, std::pair{CampaignEngine::kScalar, 4},
        std::pair{CampaignEngine::kBatch, 4}}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    BatchCampaignEngine engine(plan, cfg.options, jobs, engine_kind);
    std::vector<CampaignCell> cells(plan.total());
    engine.run(cells);
    EXPECT_EQ(engine.stats().references, 9u);
    CampaignResult result;
    result.workloads = plan.workloads;
    for (const Policy& p : plan.policies) result.policy_names.push_back(p.name);
    result.cells = std::move(cells);
    finalize_campaign_savings(result);
    for (const CampaignCell& cell : result.cells) {
      EXPECT_TRUE(cell.result.verified) << cell.result.workload << " " << cell.result.policy;
      EXPECT_FALSE(cell.result.verify_skipped);
    }
    std::ostringstream csv;
    write_campaign_csv(csv, result);
    if (first_report.empty()) first_report = csv.str();
    EXPECT_EQ(csv.str(), first_report);
  }
}

TEST(BatchEngine, SkipCompletedLeavesDoneCellsUntouched) {
  CampaignConfig cfg = small_config();
  cfg.workloads = {"lud"};
  const CampaignPlan plan = plan_campaign(cfg);
  BatchCampaignEngine engine(plan, cfg.options, 1);
  engine.skip_completed({1, 0});
  std::vector<CampaignCell> cells(plan.total());
  cells[0].result.workload = "sentinel";
  engine.run(cells);
  EXPECT_EQ(cells[0].result.workload, "sentinel");  // not re-run
  EXPECT_EQ(cells[1].result.workload, "lud");
  // The skipped cell was the would-be donor; the remaining cell becomes the
  // row's verify donor and still verifies for real.
  EXPECT_TRUE(cells[1].result.verified);
  EXPECT_FALSE(cells[1].result.verify_skipped);
  EXPECT_EQ(engine.stats().full_runs, 1u);
  EXPECT_EQ(engine.stats().model_runs, 0u);
  EXPECT_EQ(engine.stats().references, 1u);
}

TEST(BatchEngine, VerifyOffRunsEverythingModelOnly) {
  CampaignConfig cfg = small_config();
  cfg.workloads = {"lud"};
  cfg.options.verify = false;
  const CampaignPlan plan = plan_campaign(cfg);
  BatchCampaignEngine engine(plan, cfg.options, 1);
  std::vector<CampaignCell> cells(plan.total());
  engine.run(cells);
  EXPECT_EQ(engine.stats().full_runs, 0u);
  EXPECT_EQ(engine.stats().model_runs, plan.total());
  for (const auto& cell : cells) {
    // Scalar semantics for verify-off: verified trivially true, skipped.
    EXPECT_TRUE(cell.result.verified);
    EXPECT_TRUE(cell.result.verify_skipped);
  }
  // And the reports still match the scalar engine byte for byte.
  EXPECT_EQ(report(cfg, CampaignEngine::kScalar, 1),
            report(cfg, CampaignEngine::kBatch, 1));
}

TEST(BatchEngine, SizeMismatchesThrow) {
  const CampaignPlan plan = plan_campaign(small_config());
  const RunOptions options = campaign_default_options();
  BatchCampaignEngine engine(plan, options, 1);
  std::vector<CampaignCell> wrong(plan.total() + 1);
  EXPECT_THROW(engine.run(wrong), std::invalid_argument);
  EXPECT_THROW(engine.skip_completed(std::vector<char>(plan.total() - 1, 0)),
               std::invalid_argument);
}

// --- crash/resume: the batch engine killed and resumed --------------------

TEST(BatchRecovery, KillAndResumeMatchesScalarGolden) {
  const std::filesystem::path dir = test_dir();
  std::size_t case_index = 0;
  for (const bool faults : {false, true}) {
    CampaignConfig cfg = faults ? faulty_config() : small_config();
    const std::string golden = report(cfg, CampaignEngine::kScalar, 1);
    cfg.engine = CampaignEngine::kBatch;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string("faults=") + (faults ? "on" : "off") +
                   " jobs=" + std::to_string(jobs));
      cfg.jobs = jobs;
      CheckpointOptions ckpt;
      ckpt.dir = (dir / ("case-" + std::to_string(case_index++))).string();
      // Kill after the second finished-but-unjournaled cell; the resumed run
      // reads the journal and the batch engine re-runs the rest.
      const CampaignResult resumed =
          test::crash_then_resume(cfg, ckpt, KillPoint::kMidCampaignCell, 2);
      std::ostringstream csv;
      std::ostringstream json;
      write_campaign_csv(csv, resumed);
      write_campaign_json(json, resumed);
      EXPECT_EQ(csv.str() + "\n" + json.str(), golden);
    }
  }
}

TEST(BatchRecovery, ResumeCrossesEngines) {
  // A campaign journaled under the scalar engine resumes under the batch
  // engine (and vice versa): the journal fingerprint deliberately excludes
  // the engine because results are byte-identical across engines.
  const std::filesystem::path dir = test_dir();
  CampaignConfig cfg = faulty_config();
  const std::string golden = report(cfg, CampaignEngine::kScalar, 1);

  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  {
    // Kill the scalar run after its first journaled-capable cell...
    sim::CrashInjector crash(KillPoint::kMidCampaignCell, 2,
                             common::CrashMode::kThrow);
    cfg.engine = CampaignEngine::kScalar;
    EXPECT_THROW((void)run_campaign_checkpointed(cfg, ckpt), common::CrashInjected);
  }
  // ...then resume the same journal under the batch engine.
  cfg.engine = CampaignEngine::kBatch;
  ckpt.resume = true;
  const CampaignResult resumed = run_campaign_checkpointed(cfg, ckpt);
  std::ostringstream csv;
  std::ostringstream json;
  write_campaign_csv(csv, resumed);
  write_campaign_json(json, resumed);
  EXPECT_EQ(csv.str() + "\n" + json.str(), golden);
}

// --- row checkpoints: one file per row, every cell's latest record --------

/// save_checkpoint of a standalone run of cell `i` (its forked fault seed
/// applied) stepped to iteration `boundary`.
std::vector<std::uint8_t> standalone_checkpoint(const CampaignConfig& cfg,
                                                const CampaignPlan& plan, std::size_t i,
                                                std::size_t boundary) {
  const std::size_t pc = plan.policies.size();
  RunOptions options = cfg.options;
  options.faults.seed = campaign_cell_seed(options.faults.seed, i);
  return test::expected_checkpoint(plan.workloads[i / pc], plan.policies[i % pc], options,
                                   boundary);
}

TEST(BatchCheckpoint, RowFileHoldsEachCellsLatestRecord) {
  // Replicates fork from a warm-up of W = 9 iterations, so at every <= 9 the
  // fork donors' warm-up boundaries count: at every = 4, lud's last record
  // (at 8) comes from the warm-up alone, and the forked replicates hold it
  // only by inheriting it.  Rows are ragged: lud runs 10 iterations, kmeans
  // 20 (truncated), so at every = 12 only the kmeans row has a boundary and
  // at every = 50 no row has one.
  const std::filesystem::path dir = test_dir();
  CampaignConfig cfg = faulty_config();
  cfg.workloads = {"lud", "kmeans"};
  cfg.policies = {Policy::best_performance(), Policy::green_gpu()};
  cfg.fault_replicates = 2;
  cfg.options.faults_active_from = 9;
  cfg.options.max_iterations = 20;
  cfg.jobs = 2;
  const CampaignPlan plan = plan_campaign(cfg);
  const std::size_t pc = plan.policies.size();
  ASSERT_EQ(plan.replicate_stride, 2u);
  const std::string golden = report(cfg, CampaignEngine::kScalar, 1);

  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::uint8_t>> expected;
  for (const CampaignEngine engine : {CampaignEngine::kBatch, CampaignEngine::kScalar}) {
    cfg.engine = engine;
    const std::size_t row_width = engine == CampaignEngine::kBatch ? pc : 1;
    for (const std::size_t every : {0, 2, 4, 12, 50}) {
      SCOPED_TRACE(std::string(engine == CampaignEngine::kBatch ? "batch" : "scalar") +
                   " every=" + std::to_string(every));
      CheckpointOptions ckpt;
      ckpt.dir = (dir / ((engine == CampaignEngine::kBatch ? "batch-" : "scalar-") +
                         std::to_string(every)))
                     .string();
      ckpt.every = every;
      const CampaignResult result = run_campaign_checkpointed(cfg, ckpt);
      std::ostringstream csv;
      std::ostringstream json;
      write_campaign_csv(csv, result);
      write_campaign_json(json, result);
      EXPECT_EQ(csv.str() + "\n" + json.str(), golden);

      std::set<std::string> files;
      for (const auto& entry : std::filesystem::directory_iterator(ckpt.dir)) {
        if (entry.path().extension() == ".ggsn") files.insert(entry.path().filename().string());
      }
      std::set<std::string> rows_with_boundary;
      for (std::size_t i = 0; i < plan.total(); ++i) {
        const std::size_t total =
            std::min(cfg.options.max_iterations,
                     workloads::make_workload(plan.workloads[i / pc])->iterations());
        const std::size_t boundary = every == 0 ? 0 : total / every * every;
        const std::string row = "row-" + std::to_string(i / row_width * row_width) + ".ggsn";
        if (boundary == 0) continue;
        rows_with_boundary.insert(row);
        const auto records = test::read_row_checkpoint((std::filesystem::path(ckpt.dir) / row).string());
        ASSERT_TRUE(records.has_value()) << row;
        ASSERT_EQ(records->count(i), 1u) << "cell " << i << " missing from " << row;
        const test::CheckpointRecord& rec = records->at(i);
        EXPECT_EQ(rec.iteration, boundary) << "cell " << i;
        auto& want = expected[{i, boundary}];
        if (want.empty()) want = standalone_checkpoint(cfg, plan, i, boundary);
        EXPECT_EQ(rec.payload, want) << "cell " << i << " at " << boundary;
        // A row file holds its own cells and nothing else.
        for (const auto& [index, unused] : *records) {
          EXPECT_EQ(index / row_width, i / row_width) << row;
        }
      }
      EXPECT_EQ(files, rows_with_boundary);
    }
  }
}

}  // namespace
}  // namespace gg::greengpu
