// Multi-GPU demo: run kmeans across the CPU and several simulated GPUs and
// watch the division tier spread the work.
//
//   ./build/examples/multi_gpu [gpu_count]   (default 2)

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/common/flags.h"
#include "src/greengpu/runner.h"
#include "src/workloads/kmeans.h"

int main(int argc, char** argv) {
  using namespace gg;
  std::size_t gpus = 2;
  try {
    const Flags flags(argc, argv);
    flags.reject_unknown();
    if (!flags.positional().empty()) {
      gpus = static_cast<std::size_t>(std::atoi(flags.positional().front().c_str()));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (gpus == 0 || gpus > 16) {
    std::fprintf(stderr, "gpu_count must be in [1, 16]\n");
    return 1;
  }

  std::printf("GreenGPU multi-GPU demo: kmeans on CPU + %zu simulated 8800 GTX cards\n\n",
              gpus);

  workloads::Kmeans workload{};
  greengpu::Policy policy = greengpu::Policy::green_gpu();
  policy.divider = greengpu::DividerKind::kProfiling;
  const auto result = greengpu::run_experiment(workload, policy, {}, gpus);

  std::printf("iter  CPU share   CPU time  slowest GPU time (s)\n");
  for (const auto& it : result.iterations) {
    if (it.index > 6 && it.index + 2 < result.iterations.size()) continue;
    std::printf("%4zu  %8.1f%%  %9.1f  %9.1f\n", it.index, it.cpu_ratio * 100.0,
                it.cpu_time.get(), it.gpu_time.get());
  }
  std::printf("\nfinal shares (CPU");
  for (std::size_t g = 0; g < gpus; ++g) std::printf(" | GPU%zu", g);
  std::printf("):");
  for (double s : result.final_shares) std::printf(" %.1f%%", s * 100.0);
  std::printf("\n");

  std::printf("\nexec time %.1f s, total energy %.0f J (CPU %.0f J",
              result.exec_time.get(), result.total_energy().get(),
              result.cpu_energy.get());
  for (std::size_t g = 0; g < gpus; ++g) {
    std::printf(", GPU%zu %.0f J", g, result.per_gpu_energy[g].get());
  }
  std::printf(")\nresults %s\n", result.verified ? "verified" : "NOT verified");
  return 0;
}
