// Determinism invariants for the asynchronous pipeline workloads: campaign
// reports over kmeans_pipeline/srad_stream must be byte-identical across
// --jobs, across execution engines, under fault injection, and across a
// kill/resume cycle — the same guarantees the Table II suite already has.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"
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

CampaignConfig pipeline_config(bool faults) {
  CampaignConfig cfg;
  cfg.workloads = workloads::pipeline_workload_names();
  Policy baseline = Policy::best_performance();
  Policy scaling = Policy::scaling_only();
  if (faults) {
    cfg.options.faults.seed = 4242;
    cfg.options.faults.util_drop_rate = 0.05;
    cfg.options.faults.util_stale_rate = 0.05;
    cfg.options.faults.clock_reject_rate = 0.05;
    baseline.params.hardened = true;
    scaling.params.hardened = true;
  }
  cfg.policies = {baseline, scaling};
  cfg.options.pool_workers = 2;
  return cfg;
}

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

TEST(PipelineIdentity, ReportsByteIdenticalAcrossJobsAndEngines) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "fault-free");
    const CampaignConfig cfg = pipeline_config(faults);
    const std::string golden = report(cfg, CampaignEngine::kScalar, 1);
    EXPECT_EQ(report(cfg, CampaignEngine::kScalar, 2), golden);
    EXPECT_EQ(report(cfg, CampaignEngine::kScalar, 4), golden);
    EXPECT_EQ(report(cfg, CampaignEngine::kBatch, 1), golden);
    EXPECT_EQ(report(cfg, CampaignEngine::kBatch, 4), golden);
  }
}

TEST(PipelineIdentity, AllCellsVerify) {
  const CampaignResult r = run_campaign(pipeline_config(false));
  EXPECT_TRUE(r.all_verified());
  EXPECT_EQ(r.cells.size(), 4u);
}

TEST(PipelineIdentity, KillAndResumeIsByteIdentical) {
  const std::filesystem::path dir = test_dir();
  std::size_t case_index = 0;
  for (const bool faults : {false, true}) {
    const CampaignConfig cfg = pipeline_config(faults);
    const std::string golden = report(cfg, CampaignEngine::kScalar, 1);
    for (const KillPoint point : {KillPoint::kMidCampaignCell, KillPoint::kMidCheckpoint}) {
      SCOPED_TRACE(std::string("kill-point ") + std::string(common::to_string(point)) +
                   " faults=" + (faults ? "on" : "off"));
      CheckpointOptions ckpt;
      ckpt.dir = (dir / ("case-" + std::to_string(case_index++))).string();
      const CampaignResult resumed = test::crash_then_resume(cfg, ckpt, point, 1);
      std::ostringstream csv;
      std::ostringstream json;
      write_campaign_csv(csv, resumed);
      write_campaign_json(json, resumed);
      EXPECT_EQ(csv.str() + "\n" + json.str(), golden);
    }
  }
}

}  // namespace
}  // namespace gg::greengpu
