// nvidia-settings style clock control (the Coolbits path of Section VI).
//
// On the testbed the frequency-scaling daemon drives GPU clocks through
// `nvidia-settings`; this wrapper is the equivalent actuator over the
// simulated device.  Only frequency scaling is available — the GeForce 8800
// exposes no voltage control, which is why the paper's GPU-side savings are
// smaller than CPU DVFS could deliver (Section VII-C).
//
// Real clock writes are not reliable: the driver rejects them under load,
// applies them late, clamps them, or overrides them entirely during a
// thermal-throttle episode.  When a `FaultInjector` is installed,
// `set_clock_levels` surfaces each of those outcomes; a caller that ignores
// the result experiences exactly what a daemon shelling out to
// `nvidia-settings` without checking the exit code does.
#pragma once

#include <cstddef>
#include <utility>

#include "src/sim/fault.h"
#include "src/sim/platform.h"

namespace gg::cudalite {

/// Outcome of one clock write.
enum class ClockWriteStatus {
  kApplied,    ///< Both domains now hold the requested levels.
  kRejected,   ///< The driver refused; clocks unchanged.
  kDelayed,    ///< Accepted but lands only after a latency window.
  kClamped,    ///< Partially applied: each domain moved one level toward the target.
  kThrottled,  ///< A thermal episode pins the clocks; the request is remembered
               ///< and restored when the episode ends.
};

struct ClockWriteResult {
  ClockWriteStatus status{ClockWriteStatus::kApplied};
  /// Levels actually in effect right after the call.
  std::size_t core_level{0};
  std::size_t mem_level{0};
  [[nodiscard]] bool ok() const { return status == ClockWriteStatus::kApplied; }
};

class NvSettings {
 public:
  explicit NvSettings(sim::Platform& platform, std::size_t device = 0)
      : platform_(&platform), device_(device) {}

  /// Enforce a (core level, memory level) pair — levels index the DVFS
  /// tables with 0 = peak — and report what actually happened.  Consults the
  /// platform's fault injector (if any); without one the write always
  /// applies.
  ClockWriteResult set_clock_levels(std::size_t core_level, std::size_t mem_level) {
    sim::GpuDevice& gpu = platform_->gpu(device_);
    sim::FaultInjector* faults = platform_->faults();
    if (faults != nullptr) {
      // Remember the latest target so a throttle episode restores it.
      faults->note_requested_levels(device_, core_level, mem_level);
      if (faults->throttled(device_)) {
        faults->note(sim::FaultChannel::kClockWrite, sim::FaultOutcome::kClockThrottled,
                     device_);
        return ClockWriteResult{ClockWriteStatus::kThrottled, gpu.core_level(),
                                gpu.mem_level()};
      }
      switch (faults->draw_clock_fault(device_)) {
        case sim::ClockFault::kReject:
          faults->note(sim::FaultChannel::kClockWrite, sim::FaultOutcome::kClockRejected,
                       device_);
          return ClockWriteResult{ClockWriteStatus::kRejected, gpu.core_level(),
                                  gpu.mem_level()};
        case sim::ClockFault::kDelay: {
          faults->note(sim::FaultChannel::kClockWrite, sim::FaultOutcome::kClockDelayed,
                       device_);
          sim::Platform* platform = platform_;
          const std::size_t device = device_;
          faults->schedule_in(faults->config().clock_delay,
                              [platform, device, core_level, mem_level] {
                                sim::FaultInjector* f = platform->faults();
                                // A throttle episode that started meanwhile
                                // wins; the episode end restores the target.
                                if (f != nullptr && f->throttled(device)) return;
                                platform->gpu(device).set_core_level(core_level);
                                platform->gpu(device).set_mem_level(mem_level);
                              });
          return ClockWriteResult{ClockWriteStatus::kDelayed, gpu.core_level(),
                                  gpu.mem_level()};
        }
        case sim::ClockFault::kClamp: {
          faults->note(sim::FaultChannel::kClockWrite, sim::FaultOutcome::kClockClamped,
                       device_);
          gpu.set_core_level(step_toward(gpu.core_level(), core_level));
          gpu.set_mem_level(step_toward(gpu.mem_level(), mem_level));
          const bool done =
              gpu.core_level() == core_level && gpu.mem_level() == mem_level;
          return ClockWriteResult{done ? ClockWriteStatus::kApplied
                                       : ClockWriteStatus::kClamped,
                                  gpu.core_level(), gpu.mem_level()};
        }
        case sim::ClockFault::kNone:
          break;
      }
    }
    gpu.set_core_level(core_level);
    gpu.set_mem_level(mem_level);
    return ClockWriteResult{ClockWriteStatus::kApplied, core_level, mem_level};
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> clock_levels() const {
    return {platform_->gpu(device_).core_level(), platform_->gpu(device_).mem_level()};
  }

  [[nodiscard]] const sim::DvfsTable& core_table() const {
    return platform_->gpu(device_).core_table();
  }
  [[nodiscard]] const sim::DvfsTable& mem_table() const {
    return platform_->gpu(device_).mem_table();
  }

  [[nodiscard]] std::size_t device() const { return device_; }

 private:
  static std::size_t step_toward(std::size_t current, std::size_t target) {
    if (current < target) return current + 1;
    if (current > target) return current - 1;
    return current;
  }

  sim::Platform* platform_;
  std::size_t device_{0};
};

}  // namespace gg::cudalite
