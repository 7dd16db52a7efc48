#include "src/workloads/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/sim/fault.h"

namespace gg::workloads {

void ProfiledWorkload::run_iteration(cudalite::Runtime& rt,
                                     std::vector<cudalite::Stream>& streams,
                                     std::size_t iter, const ShareVector& shares,
                                     std::function<void(std::size_t)> on_done) {
  if (iter >= iterations()) throw std::out_of_range("run_iteration: iteration index");
  if (streams.empty() || shares.size() != streams.size() + 1) {
    throw std::invalid_argument(
        "run_iteration: need shares for the CPU plus one per stream");
  }
  double sum = 0.0;
  for (double s : shares) {
    if (s < 0.0) throw std::invalid_argument("run_iteration: negative share");
    sum += s;
  }
  if (std::fabs(sum - 1.0) > 1e-9) {
    throw std::invalid_argument("run_iteration: shares must sum to 1");
  }
  // Non-divisible workloads run everything on GPU 0 (the paper's GPU-only
  // default).
  const bool divide = divisible();
  const auto share = [&](std::size_t slot) {
    return divide ? shares[slot] : (slot == 1 ? 1.0 : 0.0);
  };

  const IntensityProfile prof = profile(iter);
  const double total_units = prof.units_per_iteration;
  const std::size_t items = real_items();
  auto& platform = rt.platform();
  const auto& gpu_spec = platform.gpu().spec();
  const auto& cpu_spec = platform.cpu().spec();
  sim::FaultInjector* faults = platform.faults();

  // Submitters for one slot's item range [begin, end); false = rejected.
  const auto submit_gpu = [&](cudalite::Stream& stream, std::size_t begin, std::size_t end,
                              double units, const auto& signal) {
    const auto& gpu = platform.gpu(stream.device());
    const cudalite::WorkEstimate est = make_gpu_estimate(
        gpu_spec, gpu.core_table().peak(), gpu.mem_table().peak(), prof, units);
    return rt.launch_range(
        stream, end - begin, est,
        [this, begin, iter](std::size_t b, std::size_t e) {
          gpu_chunk(begin + b, begin + e, iter);
        },
        signal);
  };
  const auto submit_cpu = [&](std::size_t begin, std::size_t end, double units,
                              const auto& signal) {
    const sim::CpuWork work =
        make_cpu_work(cpu_spec, platform.cpu().table().peak(), prof, units);
    return rt.host_submit(
        work, [this, begin, end, iter] { cpu_chunk(begin, end, iter); }, signal);
  };
  // A rejected slot is rerouted to the other kind of device (a GPU slot to
  // the CPU, the CPU slot to GPU 0) when the runtime allows it: the surviving
  // device does the work (slower, recorded as degradation) and the results
  // stay correct.  Without rerouting a rejected slot never signals — the
  // un-hardened pthread blocking on a CUDA error; the runner's watchdog
  // decides what happens next.
  const auto note = [&](sim::FaultOutcome outcome, const cudalite::Stream& stream) {
    if (faults != nullptr) faults->note(sim::FaultChannel::kHarness, outcome, stream.device());
  };
  // Last resort: compute inline (zero simulated cost) so verify() still
  // holds; the harness owns the correctness of the output.
  const auto force = [&](const cudalite::Stream& stream, std::size_t begin, std::size_t end,
                         const auto& signal) {
    note(sim::FaultOutcome::kForcedCompletion, stream);
    if (rt.compute_enabled()) cpu_chunk(begin, end, iter);
    signal();
  };
  const bool reroute = rt.hardened();

  // Slot k owns the items between its cumulative shares rounded to the item
  // grid; the last GPU slot ends at `items` and takes whatever work units the
  // other slots left.
  const double cpu_units = share(0) * total_units;
  const std::size_t cpu_end =
      std::min(items, static_cast<std::size_t>(std::llround(share(0) * items)));
  double acc = share(0);
  double rest_units = total_units - cpu_units;
  std::size_t begin = cpu_end;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const std::size_t slot = k + 1;
    const bool last = slot == streams.size();
    acc += share(slot);
    const std::size_t end =
        last ? items : std::min(items, static_cast<std::size_t>(std::llround(acc * items)));
    const double units = last ? rest_units : share(slot) * total_units;
    rest_units -= units;
    auto signal = [on_done, slot] {
      if (on_done) on_done(slot);
    };
    if (units > 0.0 && end > begin) {
      if (!submit_gpu(streams[k], begin, end, units, signal) && reroute) {
        note(sim::FaultOutcome::kRerouted, streams[k]);
        if (!submit_cpu(begin, end, units, signal)) force(streams[k], begin, end, signal);
      }
    } else {
      signal();
    }
    begin = end;
  }

  auto signal = [on_done] {
    if (on_done) on_done(0);
  };
  if (cpu_units > 0.0 && cpu_end > 0) {
    if (!submit_cpu(0, cpu_end, cpu_units, signal) && reroute) {
      note(sim::FaultOutcome::kRerouted, streams[0]);
      if (!submit_gpu(streams[0], 0, cpu_end, cpu_units, signal)) {
        force(streams[0], 0, cpu_end, signal);
      }
    }
  } else {
    signal();
  }
}

}  // namespace gg::workloads
