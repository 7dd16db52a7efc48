// A full-compute workload run driven by hand, outside ExperimentEngine, so a
// caller can leave out one merge step and check that `verify()` notices.
// Shared by verify_reference_test.cpp and tools/bench_campaign.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "src/cudalite/api.h"
#include "src/sim/platform.h"
#include "src/workloads/workload.h"

namespace gg::workloads {

/// Run every iteration of `wl` (setup, run_iteration at a fixed 30/70 split,
/// finish_iteration, teardown) on a `kernel_workers`-worker pool, skipping
/// finish_iteration at iteration `skip` (none when `skip` is past the end).
inline void run_by_hand(Workload& wl, std::size_t kernel_workers, std::size_t skip) {
  sim::Platform platform;
  cudalite::Runtime rt(platform, kernel_workers);
  wl.setup(rt);
  std::vector<cudalite::Stream> streams{rt.create_stream()};
  for (std::size_t iter = 0; iter < wl.iterations(); ++iter) {
    std::size_t pending = 2;
    wl.run_iteration(rt, streams, iter, {0.3, 0.7}, [&](std::size_t) { --pending; });
    rt.wait_until([&] { return pending == 0; });
    if (iter != skip) wl.finish_iteration(rt, iter);
  }
  wl.teardown(rt);
}

}  // namespace gg::workloads
