// NVML / nvidia-smi style monitoring interface.
//
// The paper reads GPU core and memory utilizations with `nvidia-smi`
// (Section VI).  This header reproduces the relevant slice of that interface:
// utilization rates are integer percentages averaged over the window since
// the previous query, exactly how the tool reports them.
//
// On real hardware the query intermittently fails or returns a stale window;
// when a `FaultInjector` is installed on the platform, `utilization_rates`
// surfaces those failures the way the driver does: an error status for a
// dropped read (the window keeps accumulating), a repeated value with a
// zero-length window for a stale read, and garbage percentages for a
// corrupted one.
#pragma once

#include "src/sim/fault.h"
#include "src/sim/monitor.h"
#include "src/sim/platform.h"

namespace gg::cudalite {

/// Mirrors nvmlUtilization_t: integer percentages.
struct UtilizationRates {
  unsigned gpu{0};     // core part: "GPU busy cycles / total cycles"
  unsigned memory{0};  // memory part: "actual bandwidth / rated peak bandwidth"
};

/// Result status of one monitoring query (the NVML return-code equivalent).
enum class NvmlStatus { kSuccess, kDriverError };

/// One utilization query with enough metadata for a controller to judge it:
/// `window` is the averaging window the rates cover (a zero-length window
/// means the driver served a stale repeat of the previous sample).
struct UtilizationSample {
  UtilizationRates rates{};
  Seconds window{0.0};
  NvmlStatus status{NvmlStatus::kSuccess};
  [[nodiscard]] bool ok() const { return status == NvmlStatus::kSuccess; }
};

/// Clock domains exposed by the management interface.
enum class ClockDomain { kCore, kMemory };

/// Handle to one GPU's management interface.
class NvmlDevice {
 public:
  explicit NvmlDevice(sim::Platform& platform, std::size_t device = 0)
      : platform_(&platform), device_(device),
        sampler_(platform.gpu(device), platform.queue()),
        last_query_(platform.queue().now()) {}

  /// Utilization averaged since the previous successful query, as integer
  /// percent (rounded to nearest, saturated to 100), with `window` = the
  /// time it covers.  Consults the platform's fault injector (if any) and
  /// reports errors / stale windows the way the real driver surfaces them;
  /// without one the query always succeeds.
  UtilizationSample utilization_rates() {
    sim::FaultInjector* faults = platform_->faults();
    if (faults != nullptr) {
      switch (faults->draw_util_fault(device_)) {
        case sim::UtilFault::kDrop:
          // The poll failed; nothing is consumed, so the next successful
          // query averages over the longer window.
          faults->note(sim::FaultChannel::kUtilRead, sim::FaultOutcome::kUtilDropped,
                       device_);
          return UtilizationSample{last_rates_, Seconds{0.0}, NvmlStatus::kDriverError};
        case sim::UtilFault::kStale:
          // The driver served the previous sample again: same values, a
          // window of zero length.
          faults->note(sim::FaultChannel::kUtilRead, sim::FaultOutcome::kUtilStale,
                       device_);
          return UtilizationSample{last_rates_, Seconds{0.0}, NvmlStatus::kSuccess};
        case sim::UtilFault::kCorrupt: {
          // The window advances (the counters were consumed) but the values
          // are garbage.
          faults->note(sim::FaultChannel::kUtilRead, sim::FaultOutcome::kUtilCorrupted,
                       device_);
          const Seconds window = platform_->queue().now() - last_query_;
          (void)sampler_.sample();
          last_query_ = platform_->queue().now();
          const auto [core, mem] = faults->corrupt_utilization(device_);
          last_rates_ = UtilizationRates{core, mem};
          return UtilizationSample{last_rates_, window, NvmlStatus::kSuccess};
        }
        case sim::UtilFault::kNone:
          break;
      }
    }
    const Seconds window = platform_->queue().now() - last_query_;
    const sim::GpuUtilization u = sampler_.sample();
    last_query_ = platform_->queue().now();
    last_rates_ = UtilizationRates{to_percent(u.core), to_percent(u.memory)};
    return UtilizationSample{last_rates_, window, NvmlStatus::kSuccess};
  }

  /// Current clock of a domain in MHz.
  [[nodiscard]] Megahertz clock(ClockDomain domain) const {
    return domain == ClockDomain::kCore ? platform_->gpu(device_).core_frequency()
                                        : platform_->gpu(device_).mem_frequency();
  }

  [[nodiscard]] std::size_t device() const { return device_; }

  /// Serialize the monitoring-window state (sampler baseline, last query
  /// instant, last served rates) so a restored handle reports the exact
  /// windowed averages the saved one would have.
  void save(common::SnapshotWriter& w) const {
    sampler_.save(w);
    w.f64(last_query_.get());
    w.u64(last_rates_.gpu);
    w.u64(last_rates_.memory);
  }
  void load(common::SnapshotReader& r) {
    sampler_.load(r);
    last_query_ = Seconds{r.f64()};
    last_rates_.gpu = static_cast<unsigned>(r.u64());
    last_rates_.memory = static_cast<unsigned>(r.u64());
  }

 private:
  static unsigned to_percent(double u) {
    const double p = u * 100.0 + 0.5;
    if (p <= 0.0) return 0;
    if (p >= 100.0) return 100;
    return static_cast<unsigned>(p);
  }

  sim::Platform* platform_;
  std::size_t device_{0};
  sim::GpuUtilSampler sampler_;
  Seconds last_query_{0.0};
  UtilizationRates last_rates_{};
};

}  // namespace gg::cudalite
