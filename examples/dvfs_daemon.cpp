// Frequency-scaling demo (tier 2): the WMA daemon reacting to a fluctuating
// workload, using the same interfaces the paper's Python daemon used —
// NVML-style utilization queries in, nvidia-settings-style clock writes out.
//
//   ./build/examples/dvfs_daemon [workload]   (default: streamcluster)

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/cudalite/api.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/wma_scaler.h"
#include "src/workloads/registry.h"

int main(int argc, char** argv) {
  using namespace gg;
  std::string name = "streamcluster";
  try {
    const Flags flags(argc, argv);
    flags.reject_unknown();
    if (!flags.positional().empty()) name = flags.positional().front();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Assemble the stack by hand (the runner does this for you normally) to
  // show the moving parts: platform, runtime, monitoring, actuation, daemon.
  sim::Platform platform;
  cudalite::Runtime rt(platform);
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);

  greengpu::WmaParams params;  // alpha_c 0.15, alpha_m 0.02, phi 0.3, beta 0.2, 3 s
  greengpu::GpuFrequencyScaler daemon(nvml, settings, params);
  daemon.attach(platform.queue());

  std::printf("GreenGPU tier 2 demo: WMA frequency-scaling daemon on '%s'\n",
              name.c_str());
  std::printf("GPU starts at the driver-default lowest clocks (%.0f / %.0f MHz)\n\n",
              platform.gpu().core_frequency().get(), platform.gpu().mem_frequency().get());

  const auto workload = workloads::make_workload(name);
  workload->setup(rt);
  std::vector<cudalite::Stream> streams{rt.create_stream()};
  const auto start_energy = platform.snapshot();
  for (std::size_t iter = 0; iter < workload->iterations(); ++iter) {
    // Everything on the GPU: the CPU slot signals at once.
    std::size_t pending = 2;
    workload->run_iteration(rt, streams, iter, {0.0, 1.0}, [&](std::size_t) { --pending; });
    rt.wait_until([&] { return pending == 0; });
    workload->finish_iteration(rt, iter);
  }
  workload->teardown(rt);
  daemon.detach();

  std::printf("time(s)  core%%  mem%%   -> enforced clocks (MHz)\n");
  for (const auto& d : daemon.decisions()) {
    std::printf("%6.0f   %3.0f    %3.0f    -> %4.0f / %4.0f\n", d.time.get(),
                d.core_util * 100.0, d.mem_util * 100.0,
                settings.core_table().frequency(d.chosen.core).get(),
                settings.mem_table().frequency(d.chosen.mem).get());
  }

  const auto end_energy = platform.snapshot();
  const auto delta = sim::Platform::delta(start_energy, end_energy);
  std::printf("\nrun finished in %.1f simulated seconds; GPU energy %.0f J\n",
              delta.elapsed.get(), delta.gpu.get());
  std::printf("results %s; %llu clock transitions\n",
              workload->verify(rt.pool()) ? "verified" : "NOT verified",
              static_cast<unsigned long long>(platform.gpu().frequency_transitions()));
  return 0;
}
