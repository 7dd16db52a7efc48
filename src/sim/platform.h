// Aggregate GPU-CPU heterogeneous platform (Figure 3's lower half, plus the
// two Wattsup meters of Figure 4).
#pragma once

#include <memory>
#include <vector>

#include "src/sim/copy_engine.h"
#include "src/sim/cpu_device.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault.h"
#include "src/sim/gpu_device.h"
#include "src/sim/specs.h"

namespace gg::sim {

/// Energies of both meters at an instant; used to attribute energy to
/// iterations and experiment phases by differencing.
struct EnergySnapshot {
  Seconds time{0.0};
  Joules gpu{0.0};  // meter 2: all GPU cards via their own ATX supply
  Joules cpu{0.0};  // meter 1: CPU + motherboard + disk + main memory
  [[nodiscard]] Joules total() const { return gpu + cpu; }
};

/// Difference of two snapshots.
struct EnergyDelta {
  Seconds elapsed{0.0};
  Joules gpu{0.0};
  Joules cpu{0.0};
  [[nodiscard]] Joules total() const { return gpu + cpu; }
};

class Platform {
 public:
  /// Construct the paper's testbed: GeForce 8800 GTX cards (frequencies
  /// start at the lowest levels — the driver default) + Phenom II X2 at the
  /// peak P-state.  `gpu_count` > 1 models the multi-GPU configuration the
  /// paper's application structure anticipates ("one pthread for one GPU").
  explicit Platform(std::size_t gpu_count = 1);

  Platform(GpuSpec gpu_spec, DvfsTable gpu_core, DvfsTable gpu_mem,
           std::size_t gpu_core_level, std::size_t gpu_mem_level, CpuSpec cpu_spec,
           DvfsTable cpu_table, std::size_t cpu_level, BusSpec bus = BusSpec{},
           std::size_t gpu_count = 1);

  [[nodiscard]] EventQueue& queue() { return queue_; }
  /// The first (or only) GPU.
  [[nodiscard]] GpuDevice& gpu() { return *gpus_.front(); }
  [[nodiscard]] GpuDevice& gpu(std::size_t index) { return *gpus_.at(index); }
  [[nodiscard]] std::size_t gpu_count() const { return gpus_.size(); }
  [[nodiscard]] CpuDevice& cpu() { return *cpu_; }
  /// The DMA copy engine paired with gpu(index); transfers submitted here
  /// advance concurrently with that GPU's kernel FIFO.
  [[nodiscard]] CopyEngine& copy_engine(std::size_t index = 0) {
    return *copy_engines_.at(index);
  }
  [[nodiscard]] const BusSpec& bus() const { return bus_; }
  [[nodiscard]] Seconds now() const { return queue_.now(); }

  /// Current meter readings (advances internal accounting to now()).
  [[nodiscard]] EnergySnapshot snapshot();
  [[nodiscard]] static EnergyDelta delta(const EnergySnapshot& a, const EnergySnapshot& b);

  /// Install a seeded fault injector over this platform's devices (replacing
  /// any previous one) and start its episode scheduling.  The cudalite
  /// facades consult `faults()` on every monitoring read, clock write and
  /// launch; with no injector installed they behave perfectly.
  FaultInjector& install_faults(const FaultConfig& config);
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }

  /// Serialize the whole platform's accounting state (virtual clock plus
  /// every device's levels/integrals/counters).  Only legal at a quiescent
  /// instant — all devices idle — and before any fault injector is
  /// installed (the injector's episode events cannot be captured).  Pending
  /// periodic controller ticks are NOT captured; callers re-arm them at
  /// their saved phase (see GpuFrequencyScaler::attach_at).
  void save(common::SnapshotWriter& w);
  /// Counterpart of save(): restores into a platform built with the same
  /// configuration whose event queue is drained.
  void load(common::SnapshotReader& r);

 private:
  EventQueue queue_;
  // unique_ptr: devices hold a reference to queue_ and are not movable.
  std::vector<std::unique_ptr<GpuDevice>> gpus_;
  // Declared after gpus_: each engine is its GPU's activity listener, so it
  // must be destroyed first (listeners never fire during destruction, but
  // the ordering keeps the dangling window inert).
  std::vector<std::unique_ptr<CopyEngine>> copy_engines_;
  std::unique_ptr<CpuDevice> cpu_;
  BusSpec bus_;
  std::unique_ptr<FaultInjector> faults_;
};

}  // namespace gg::sim
