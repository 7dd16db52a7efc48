#include "src/greengpu/campaign.h"

#include <stdexcept>

#include "src/common/csv.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/greengpu/recovery.h"
#include "src/workloads/registry.h"

namespace gg::greengpu {

const CampaignCell& CampaignResult::cell(std::size_t workload_index,
                                         std::size_t policy_index) const {
  if (workload_index >= workloads.size() || policy_index >= policy_names.size()) {
    throw std::out_of_range("CampaignResult: cell index");
  }
  return cells[workload_index * policy_names.size() + policy_index];
}

double CampaignResult::mean_saving(std::size_t policy_index) const {
  if (workloads.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    sum += cell(w, policy_index).energy_saving;
  }
  return sum / static_cast<double>(workloads.size());
}

bool CampaignResult::all_verified() const {
  for (const auto& c : cells) {
    if (!c.result.verified) return false;
  }
  return true;
}

std::optional<CampaignEngine> campaign_engine_from_string(std::string_view name) {
  if (name == "scalar") return CampaignEngine::kScalar;
  if (name == "batch") return CampaignEngine::kBatch;
  return std::nullopt;
}

std::uint64_t campaign_cell_seed(std::uint64_t base, std::size_t cell_index) {
  std::uint64_t state =
      base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(cell_index) + 1);
  return splitmix64(state);
}

CampaignPlan plan_campaign(const CampaignConfig& config) {
  CampaignPlan plan;
  plan.workloads =
      config.workloads.empty() ? workloads::all_workload_names() : config.workloads;
  plan.policies = config.policies;
  if (plan.policies.empty()) {
    plan.policies = {Policy::best_performance(), Policy::scaling_only(),
                     Policy::division_only(), Policy::green_gpu()};
  }
  // Fault-seed sweep: expand every policy into `fault_replicates` copies
  // that differ only in their forked fault seed (the flat cell index feeds
  // campaign_cell_seed).  Expansion happens in the plan so the scalar and
  // batch engines, the checkpoint journal and the reports all see the same
  // cell matrix.
  if (config.fault_replicates > 1 && config.options.faults.any_faults()) {
    std::vector<Policy> expanded;
    expanded.reserve(plan.policies.size() * config.fault_replicates);
    for (const Policy& base : plan.policies) {
      for (std::size_t r = 0; r < config.fault_replicates; ++r) {
        Policy copy = base;
        copy.name = base.name + "#s" + std::to_string(r);
        expanded.push_back(std::move(copy));
      }
    }
    plan.policies = std::move(expanded);
    plan.replicate_stride = config.fault_replicates;
  }
  return plan;
}

void finalize_campaign_savings(CampaignResult& result) {
  const std::size_t policy_count = result.policy_names.size();
  if (policy_count == 0 || result.cells.empty()) return;
  for (std::size_t w = 0; w < result.workloads.size(); ++w) {
    const ExperimentResult& baseline = result.cells[w * policy_count].result;
    const double base_energy = baseline.total_energy().get();
    const double base_time = baseline.exec_time.get();
    for (std::size_t p = 0; p < policy_count; ++p) {
      CampaignCell& cell = result.cells[w * policy_count + p];
      const double energy = cell.result.total_energy().get();
      const double time = cell.result.exec_time.get();
      cell.energy_saving = base_energy > 0.0 ? 1.0 - energy / base_energy : 0.0;
      cell.time_delta = base_time > 0.0 ? time / base_time - 1.0 : 0.0;
    }
  }
}

CampaignResult run_campaign(const CampaignConfig& config, const CampaignProgress& progress) {
  return run_campaign_checkpointed(config, CheckpointOptions{}, progress);
}

void write_campaign_csv(std::ostream& os, const CampaignResult& result) {
  CsvWriter w(os);
  w.row_values("workload", "policy", "exec_time_s", "gpu_energy_J", "cpu_energy_J",
               "total_energy_J", "energy_saving", "time_delta", "final_cpu_share",
               "verified");
  for (std::size_t wl = 0; wl < result.workloads.size(); ++wl) {
    for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
      const CampaignCell& c = result.cell(wl, p);
      w.row_values(result.workloads[wl], result.policy_names[p],
                   c.result.exec_time.get(), c.result.gpu_energy.get(),
                   c.result.cpu_energy.get(), c.result.total_energy().get(),
                   c.energy_saving, c.time_delta, c.result.final_ratio,
                   c.result.verified ? 1 : 0);
    }
  }
}

void write_campaign_json(std::ostream& os, const CampaignResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.key("runs");
  w.begin_array();
  for (std::size_t wl = 0; wl < result.workloads.size(); ++wl) {
    for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
      const CampaignCell& c = result.cell(wl, p);
      w.begin_object();
      w.kv("workload", result.workloads[wl]);
      w.kv("policy", result.policy_names[p]);
      w.kv("exec_time_s", c.result.exec_time.get());
      w.kv("gpu_energy_J", c.result.gpu_energy.get());
      w.kv("cpu_energy_J", c.result.cpu_energy.get());
      w.kv("total_energy_J", c.result.total_energy().get());
      w.kv("gpu_dynamic_energy_J", c.result.gpu_dynamic_energy().get());
      w.kv("energy_saving", c.energy_saving);
      w.kv("time_delta", c.time_delta);
      w.kv("final_cpu_share", c.result.final_ratio);
      w.kv("verified", c.result.verified);
      w.end_object();
    }
  }
  w.end_array();
  w.key("policy_summary");
  w.begin_array();
  for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
    w.begin_object();
    w.kv("policy", result.policy_names[p]);
    w.kv("mean_energy_saving", result.mean_saving(p));
    w.end_object();
  }
  w.end_array();
  w.kv("all_verified", result.all_verified());
  w.end_object();
  os << '\n';
}

void write_campaign_markdown(std::ostream& os, const CampaignResult& result) {
  os << "| workload |";
  for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
    os << ' ' << result.policy_names[p] << " |";
  }
  os << "\n|---|";
  for (std::size_t p = 0; p < result.policy_names.size(); ++p) os << "---|";
  os << '\n';
  char buf[64];
  for (std::size_t wl = 0; wl < result.workloads.size(); ++wl) {
    os << "| " << result.workloads[wl] << " |";
    for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
      const CampaignCell& c = result.cell(wl, p);
      if (p == 0) {
        std::snprintf(buf, sizeof buf, " %.0f J |", c.result.total_energy().get());
      } else {
        std::snprintf(buf, sizeof buf, " %+.2f%% (t %+.1f%%) |",
                      100.0 * c.energy_saving, 100.0 * c.time_delta);
      }
      os << buf;
    }
    os << '\n';
  }
  os << "| **mean saving** |";
  for (std::size_t p = 0; p < result.policy_names.size(); ++p) {
    if (p == 0) {
      os << " baseline |";
    } else {
      std::snprintf(buf, sizeof buf, " **%+.2f%%** |", 100.0 * result.mean_saving(p));
      os << buf;
    }
  }
  os << '\n';
}

}  // namespace gg::greengpu
