// Ablation: sensitivity of the headline results to the GPU power-model
// split.  The paper's conclusions rest on where the card's power goes —
// clock trees (recoverable by frequency-only throttling) versus switching
// activity (recoverable only by doing less work) versus static base.  This
// bench re-runs the Fig. 6a average under alternative splits with the same
// 145 W full-load total, showing which conclusions are calibration-robust.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/greengpu/wma_scaler.h"
#include "src/greengpu/cpu_governor.h"
#include "src/cudalite/api.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/workloads/registry.h"

namespace {

using namespace gg;

struct Split {
  const char* name;
  double base, core_clock, core_active, mem_clock, mem_active;
};

/// Run one workload under best-performance and scaling-only on a platform
/// with the given power split; return the GPU energy saving percent.
double gpu_saving(const std::string& workload_name, const Split& split) {
  sim::GpuSpec spec;
  spec.p_base = Watts{split.base};
  spec.p_core_clock = Watts{split.core_clock};
  spec.p_core_active = Watts{split.core_active};
  spec.p_mem_clock = Watts{split.mem_clock};
  spec.p_mem_active = Watts{split.mem_active};

  double energy[2] = {0.0, 0.0};
  for (int mode = 0; mode < 2; ++mode) {
    sim::Platform platform(spec, sim::geforce8800_core_table(),
                           sim::geforce8800_memory_table(), 5, 5, sim::CpuSpec{},
                           sim::phenom2_table(), 0);
    cudalite::Runtime rt(platform);
    cudalite::NvmlDevice nvml(platform);
    cudalite::NvSettings settings(platform);
    std::unique_ptr<greengpu::GpuFrequencyScaler> scaler;
    if (mode == 1) {
      scaler = std::make_unique<greengpu::GpuFrequencyScaler>(nvml, settings,
                                                              greengpu::WmaParams{});
      scaler->attach(platform.queue());
    } else {
      settings.set_clock_levels(0, 0);
    }
    const auto workload = workloads::make_workload(workload_name);
    workload->setup(rt);
    std::vector<cudalite::Stream> streams{rt.create_stream()};
    const auto e0 = platform.snapshot();
    for (std::size_t iter = 0; iter < workload->iterations(); ++iter) {
      std::size_t pending = 2;
      workload->run_iteration(rt, streams, iter, {0.0, 1.0},
                              [&](std::size_t) { --pending; });
      rt.wait_until([&] { return pending == 0; });
      workload->finish_iteration(rt, iter);
    }
    workload->teardown(rt);
    if (scaler) scaler->detach();
    const auto e1 = platform.snapshot();
    energy[mode] = sim::Platform::delta(e0, e1).gpu.get();
  }
  return bench::saving_percent(energy[0], energy[1]);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("ablation_power_model",
                "robustness of Fig. 6a to the GPU power-split calibration");

  const Split splits[] = {
      {"repo default (clock-heavy)", 35, 32, 38, 20, 20},
      {"activity-heavy", 35, 15, 55, 8, 32},
      {"balanced", 35, 25, 45, 15, 25},
      {"static-heavy", 60, 22, 28, 15, 20},
  };

  // Each (split, workload) cell builds its own Platform, so they fan out
  // directly; savings land in index-determined slots.
  const auto names = workloads::all_workload_names();
  std::vector<double> saving(std::size(splits) * names.size());
  bench::parallel_cells(
      bench::jobs_from_argv(argc, argv), saving.size(), [&](std::size_t i) {
        saving[i] = gpu_saving(names[i % names.size()], splits[i / names.size()]);
      });

  std::printf("\nsplit,avg_gpu_saving_pct,max_gpu_saving_pct\n");
  double default_avg = 0.0, activity_avg = 0.0;
  for (std::size_t s = 0; s < std::size(splits); ++s) {
    const Split& split = splits[s];
    RunningStats savings;
    for (std::size_t w = 0; w < names.size(); ++w) {
      savings.add(saving[s * names.size() + w]);
    }
    std::printf("\"%s\",%.2f,%.2f\n", split.name, savings.mean(), savings.max());
    if (split.name == splits[0].name) default_avg = savings.mean();
    if (std::string(split.name) == "activity-heavy") activity_avg = savings.mean();
  }

  std::printf("\n# shape checks\n");
  bench::check(default_avg > 0.0 && activity_avg > 0.0,
               "frequency scaling saves GPU energy under every split");
  bench::check(default_avg > activity_avg,
               "savings scale with the clock-tree share (the mechanism, not "
               "the calibration, drives the result)");
  return 0;
}
