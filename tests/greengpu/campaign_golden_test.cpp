// Checked-in campaign reports: the CSV+JSON that the scalar engine produced
// for a handful of small configs, stored under tests/greengpu/golden/.
//
// The engine identity tests (batch == scalar, any --jobs, kill/resume) only
// compare the engines against each other.  Since the scalar engine became
// the one-cell-row case of BatchCampaignEngine the two share their code, so
// a change that moved both would pass those tests unnoticed.  These goldens
// pin the absolute bytes instead: every engine, jobs value and crash/resume
// path must reproduce them exactly.  Regenerate them only for a deliberate
// change to simulated results or to the report format.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/sim/crash.h"
#include "src/workloads/registry.h"

namespace gg::greengpu {
namespace {

using common::KillPoint;

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  cfg.policies = {Policy::best_performance(), Policy::scaling_only()};
  cfg.options.pool_workers = 2;
  return cfg;
}

/// Benign fault channels: controller inputs are perturbed, no run aborts.
CampaignConfig faulty_config() {
  CampaignConfig cfg = small_config();
  cfg.options.faults.seed = 1234;
  cfg.options.faults.util_drop_rate = 0.05;
  cfg.options.faults.util_stale_rate = 0.05;
  cfg.options.faults.util_corrupt_rate = 0.02;
  cfg.options.faults.clock_reject_rate = 0.05;
  return cfg;
}

/// Fault-seed sweep whose replicates share a warm-up prefix.
CampaignConfig replicate_config() {
  CampaignConfig cfg = faulty_config();
  cfg.workloads = {"lud"};
  cfg.fault_replicates = 3;
  cfg.options.faults_active_from = 4;
  return cfg;
}

CampaignConfig verify_off_config() {
  CampaignConfig cfg = small_config();
  cfg.workloads = {"lud"};
  cfg.options.verify = false;
  return cfg;
}

/// The asynchronous stack (Section VII-A): the host idles instead of
/// spinning while the GPU computes, so under greengpu ondemand meets a CPU
/// that alternates between its hotspot share and idling, and must leave
/// its level within runs of samples it would otherwise leap.  (The
/// synchronous stack spins the idle host at full utilization, which holds
/// ondemand at the peak throughout.)
CampaignConfig async_config() {
  CampaignConfig cfg;
  cfg.workloads = {"hotspot", "lud"};
  cfg.policies = {Policy::best_performance(), Policy::green_gpu()};
  cfg.options.pool_workers = 2;
  cfg.options.sync_spin = false;
  return cfg;
}

/// The asynchronous pipeline workloads under benign faults, hardened.
CampaignConfig pipeline_config() {
  CampaignConfig cfg;
  cfg.workloads = workloads::pipeline_workload_names();
  Policy baseline = Policy::best_performance();
  Policy scaling = Policy::scaling_only();
  cfg.options.faults.seed = 4242;
  cfg.options.faults.util_drop_rate = 0.05;
  cfg.options.faults.util_stale_rate = 0.05;
  cfg.options.faults.clock_reject_rate = 0.05;
  baseline.params.hardened = true;
  scaling.params.hardened = true;
  cfg.policies = {baseline, scaling};
  cfg.options.pool_workers = 2;
  return cfg;
}

struct GoldenCase {
  const char* name;
  CampaignConfig (*config)();
};

const GoldenCase kCases[] = {
    {"small", small_config},           {"faulty", faulty_config},
    {"replicate", replicate_config},   {"verify_off", verify_off_config},
    {"pipeline", pipeline_config},     {"async", async_config},
};

// Keeps the discovered test names free of the struct's pointer bytes.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

struct Report {
  std::string csv;
  std::string json;
};

Report render(const CampaignResult& r) {
  std::ostringstream csv;
  std::ostringstream json;
  write_campaign_csv(csv, r);
  write_campaign_json(json, r);
  return {csv.str(), json.str()};
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "missing golden file " << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

Report golden(const GoldenCase& c) {
  const std::filesystem::path dir{GG_GOLDEN_DIR};
  return {slurp(dir / (std::string(c.name) + ".csv")),
          slurp(dir / (std::string(c.name) + ".json"))};
}

std::filesystem::path scratch_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("gg_CampaignGolden_" + leaf);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class CampaignGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CampaignGolden, EveryEngineAndJobsValueReproducesTheGolden) {
  const Report want = golden(GetParam());
  for (const CampaignEngine engine : {CampaignEngine::kScalar, CampaignEngine::kBatch}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(engine == CampaignEngine::kScalar ? "scalar" : "batch") +
                   " jobs=" + std::to_string(jobs));
      CampaignConfig cfg = GetParam().config();
      cfg.engine = engine;
      cfg.jobs = jobs;
      const Report got = render(run_campaign(cfg));
      EXPECT_EQ(got.csv, want.csv);
      EXPECT_EQ(got.json, want.json);
    }
  }
}

TEST_P(CampaignGolden, KillAndResumeReproducesTheGolden) {
  const Report want = golden(GetParam());
  for (const CampaignEngine engine : {CampaignEngine::kScalar, CampaignEngine::kBatch}) {
    const std::string label = engine == CampaignEngine::kScalar ? "scalar" : "batch";
    SCOPED_TRACE(label);
    CampaignConfig cfg = GetParam().config();
    cfg.engine = engine;
    CheckpointOptions ckpt;
    ckpt.dir = scratch_dir(std::string(GetParam().name) + "_" + label).string();
    // Kill after the second finished-but-unjournaled cell, then resume from
    // the journal.
    sim::CrashInjector crash(KillPoint::kMidCampaignCell, 2, common::CrashMode::kThrow);
    EXPECT_THROW((void)run_campaign_checkpointed(cfg, ckpt), common::CrashInjected);
    EXPECT_TRUE(crash.fired());
    ckpt.resume = true;
    const Report got = render(run_campaign_checkpointed(cfg, ckpt));
    EXPECT_EQ(got.csv, want.csv);
    EXPECT_EQ(got.json, want.json);
    std::filesystem::remove_all(ckpt.dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, CampaignGolden, ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace gg::greengpu
