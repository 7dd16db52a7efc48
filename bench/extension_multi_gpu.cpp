// Extension bench: GreenGPU scaled out to multiple GPUs.
//
// The paper's testbed has one GeForce 8800, but its application structure is
// written for N ("one pthread for one GPU", Section VI).  This bench runs
// the divisible workloads on 1, 2 and 4 simulated cards and reports how the
// division tier spreads work and what it buys in time and energy.  Every run
// goes through the one experiment loop: at 1 card the division tier is the
// single-GPU Qilin profiler, at N >= 2 its N-slot form.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/greengpu/runner.h"

namespace {

using namespace gg;

/// GreenGPU with the Qilin-style profiling divider and per-card WMA.
greengpu::Policy profiling_green_gpu() {
  greengpu::Policy p = greengpu::Policy::green_gpu();
  p.divider = greengpu::DividerKind::kProfiling;
  return p;
}

void sweep(const std::string& workload) {
  std::printf("\n# %s across GPU counts (multi-profiling divider + per-card WMA)\n",
              workload.c_str());
  std::printf("gpus,exec_time_s,total_energy_J,cpu_share_pct,per_gpu_share_pct\n");
  for (std::size_t n : {1u, 2u, 4u}) {
    const auto r = greengpu::run_experiment(workload, profiling_green_gpu(), {}, n);
    double gpu_share = 0.0;
    for (std::size_t g = 1; g < r.final_shares.size(); ++g) gpu_share += r.final_shares[g];
    std::printf("%zu,%.1f,%.0f,%.1f,%.1f\n", n, r.exec_time.get(),
                r.total_energy().get(), r.final_shares[0] * 100.0,
                gpu_share / static_cast<double>(n) * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  gg::bench::expect_no_flags(argc, argv);
  bench::banner("extension_multi_gpu",
                "Section VI extension: the pthread-per-GPU structure at N > 1");

  sweep("kmeans");
  sweep("hotspot");

  std::printf("\n# divider comparison on kmeans with 2 GPUs\n");
  std::printf("divider,exec_time_s,total_energy_J,shares\n");
  for (auto kind : {greengpu::DividerKind::kStep, greengpu::DividerKind::kProfiling}) {
    const auto r =
        greengpu::run_experiment("kmeans", greengpu::Policy::division_with(kind), {}, 2);
    std::printf("%s,%.1f,%.0f,%.3f/%.3f/%.3f\n",
                kind == greengpu::DividerKind::kStep ? "multi-step" : "multi-profiling",
                r.exec_time.get(), r.total_energy().get(), r.final_shares[0],
                r.final_shares[1], r.final_shares[2]);
  }

  std::printf("\n# shape checks\n");
  const auto one = greengpu::run_experiment("kmeans", profiling_green_gpu(), {}, 1);
  const auto two = greengpu::run_experiment("kmeans", profiling_green_gpu(), {}, 2);
  const auto four = greengpu::run_experiment("kmeans", profiling_green_gpu(), {}, 4);
  bench::check(two.exec_time.get() < one.exec_time.get() * 0.6 &&
                   four.exec_time.get() < two.exec_time.get() * 0.7,
               "near-linear speedup from additional cards");
  bench::check(two.final_shares[0] < one.final_shares[0],
               "the CPU's relative share shrinks as GPUs are added");
  bench::check(std::abs(two.final_shares[1] - two.final_shares[2]) < 0.01,
               "identical cards receive identical shares");
  // Energy per unit of work improves despite an extra card's idle power:
  // the second card's throughput outweighs its overhead for this workload.
  bench::check(two.total_energy().get() < one.total_energy().get(),
               "two cards finish the fixed job with less total energy");
  return 0;
}
