#include "src/greengpu/campaign.h"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "src/common/csv.h"

namespace gg::greengpu {
namespace {

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  cfg.policies = {Policy::best_performance(), Policy::scaling_only()};
  cfg.options.pool_workers = 2;
  return cfg;
}

TEST(Campaign, RunsFullMatrix) {
  const CampaignResult r = run_campaign(small_config());
  EXPECT_EQ(r.workloads.size(), 2u);
  EXPECT_EQ(r.policy_names.size(), 2u);
  EXPECT_EQ(r.cells.size(), 4u);
  EXPECT_TRUE(r.all_verified());
}

TEST(Campaign, BaselineSavingsAreZero) {
  const CampaignResult r = run_campaign(small_config());
  for (std::size_t w = 0; w < r.workloads.size(); ++w) {
    EXPECT_DOUBLE_EQ(r.cell(w, 0).energy_saving, 0.0);
    EXPECT_DOUBLE_EQ(r.cell(w, 0).time_delta, 0.0);
  }
}

TEST(Campaign, ScalingSavesOnLowUtilizationWorkloads) {
  const CampaignResult r = run_campaign(small_config());
  // pathfinder and lud are the scaling tier's best cases.
  EXPECT_GT(r.cell(0, 1).energy_saving, 0.0);
  EXPECT_GT(r.cell(1, 1).energy_saving, 0.0);
  EXPECT_GT(r.mean_saving(1), 0.02);
}

TEST(Campaign, ProgressCallbackCounts) {
  std::size_t calls = 0;
  std::size_t last_completed = 0;
  (void)run_campaign(small_config(), [&](const std::string&, const std::string&,
                                         std::size_t completed, std::size_t total) {
    ++calls;
    EXPECT_EQ(total, 4u);
    EXPECT_GT(completed, last_completed);
    last_completed = completed;
  });
  EXPECT_EQ(calls, 4u);
}

TEST(Campaign, CellIndexValidation) {
  const CampaignResult r = run_campaign(small_config());
  EXPECT_THROW((void)r.cell(2, 0), std::out_of_range);
  EXPECT_THROW((void)r.cell(0, 2), std::out_of_range);
}

TEST(Campaign, CsvReportWellFormed) {
  const CampaignResult r = run_campaign(small_config());
  std::ostringstream os;
  write_campaign_csv(os, r);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  const auto header = csv_parse_line(line);
  EXPECT_EQ(header.front(), "workload");
  int rows = 0;
  while (std::getline(is, line)) {
    const auto fields = csv_parse_line(line);
    EXPECT_EQ(fields.size(), header.size());
    ++rows;
  }
  EXPECT_EQ(rows, 4);
}

TEST(Campaign, JsonReportContainsRunsAndSummary) {
  const CampaignResult r = run_campaign(small_config());
  std::ostringstream os;
  write_campaign_json(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"runs\":["), std::string::npos);
  EXPECT_NE(json.find("\"policy_summary\":["), std::string::npos);
  EXPECT_NE(json.find("\"all_verified\":true"), std::string::npos);
  // Both workloads appear.
  EXPECT_NE(json.find("\"pathfinder\""), std::string::npos);
  EXPECT_NE(json.find("\"lud\""), std::string::npos);
  // Rough structural sanity: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Campaign, MarkdownReportWellFormed) {
  const CampaignResult r = run_campaign(small_config());
  std::ostringstream os;
  write_campaign_markdown(os, r);
  const std::string md = os.str();
  std::istringstream is(md);
  std::string line;
  int rows = 0;
  std::size_t pipes = 0;
  while (std::getline(is, line)) {
    ++rows;
    const std::size_t n = std::count(line.begin(), line.end(), '|');
    if (rows == 1) pipes = n;
    EXPECT_EQ(n, pipes) << "row " << rows << ": " << line;  // rectangular table
  }
  // Header + separator + 2 workloads + mean row.
  EXPECT_EQ(rows, 5);
  EXPECT_NE(md.find("| pathfinder |"), std::string::npos);
  EXPECT_NE(md.find("**mean saving**"), std::string::npos);
}

TEST(Campaign, DefaultsCoverFullSuiteAndFourPolicies) {
  // Only check the configuration expansion, not a full (expensive) run.
  CampaignConfig cfg;
  cfg.workloads = {"lud"};  // keep the run small
  cfg.options.pool_workers = 2;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_EQ(r.policy_names.size(), 4u);
  EXPECT_EQ(r.policy_names[0], "best-performance");
  EXPECT_EQ(r.policy_names[3], "greengpu");
}

// --- parallel engine determinism -----------------------------------------

/// CSV + JSON reports for the config at a given worker count.
std::pair<std::string, std::string> reports(CampaignConfig cfg, std::size_t jobs) {
  cfg.jobs = jobs;
  const CampaignResult r = run_campaign(cfg);
  std::ostringstream csv, json;
  write_campaign_csv(csv, r);
  write_campaign_json(json, r);
  return {csv.str(), json.str()};
}

/// Fault channels that perturb controller inputs without aborting runs.
CampaignConfig faulty_config() {
  CampaignConfig cfg = small_config();
  cfg.options.faults.seed = 1234;
  cfg.options.faults.util_drop_rate = 0.05;
  cfg.options.faults.util_stale_rate = 0.05;
  cfg.options.faults.util_corrupt_rate = 0.02;
  cfg.options.faults.clock_reject_rate = 0.05;
  return cfg;
}

TEST(CampaignParallel, ReportsByteIdenticalAcrossJobs) {
  const auto serial = reports(small_config(), 1);
  EXPECT_EQ(serial, reports(small_config(), 2));
  EXPECT_EQ(serial, reports(small_config(), 8));
}

TEST(CampaignParallel, ReportsByteIdenticalAcrossJobsUnderFaultInjection) {
  const auto serial = reports(faulty_config(), 1);
  EXPECT_EQ(serial, reports(faulty_config(), 2));
  EXPECT_EQ(serial, reports(faulty_config(), 8));
}

TEST(CampaignParallel, FaultInjectionActuallyPerturbsCells) {
  // Guard the test above against vacuity: the fault channels must be live.
  const CampaignResult r = run_campaign(faulty_config());
  std::size_t events = 0;
  // Campaigns default to counters-only retention, so the retained
  // fault_events vectors are empty; the exact count survives.
  for (const auto& cell : r.cells) {
    events += cell.result.fault_event_count;
    EXPECT_TRUE(cell.result.fault_events.empty());
    EXPECT_TRUE(cell.result.iterations.empty());
  }
  EXPECT_GT(events, 0u);
}

TEST(CampaignParallel, CellSeedForkDependsOnIndexOnly) {
  EXPECT_EQ(campaign_cell_seed(42, 3), campaign_cell_seed(42, 3));
  EXPECT_NE(campaign_cell_seed(42, 0), campaign_cell_seed(42, 1));
  EXPECT_NE(campaign_cell_seed(42, 0), campaign_cell_seed(43, 0));
}

TEST(CampaignParallel, ProgressStaysMonotonicWithWorkers) {
  CampaignConfig cfg = small_config();
  cfg.jobs = 4;
  std::size_t calls = 0;
  std::size_t last_completed = 0;
  (void)run_campaign(cfg, [&](const std::string&, const std::string&,
                              std::size_t completed, std::size_t total) {
    ++calls;
    EXPECT_EQ(total, 4u);
    EXPECT_GT(completed, last_completed);
    last_completed = completed;
  });
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(last_completed, 4u);
}

TEST(CampaignParallel, JobsZeroUsesAllCoresAndStaysDeterministic) {
  const auto serial = reports(small_config(), 1);
  EXPECT_EQ(serial, reports(small_config(), 0));
}

}  // namespace
}  // namespace gg::greengpu
