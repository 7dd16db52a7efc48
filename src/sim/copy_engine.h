// Simulated DMA copy engine: one per GPU, a FIFO of H2D/D2H transfers that
// advance in simulated time concurrently with kernel execution.
//
// The GeForce 8800 exposes a single DMA engine shared by both transfer
// directions, so H2D and D2H serialize against each other but overlap freely
// with the SM array.  Transfer duration comes from the platform's BusSpec
// (latency + bytes/bandwidth) and is fixed at issue: the bus has no DVFS
// domain, so no mid-transfer rescheduling is needed.
//
// Accounting mirrors GpuDevice: piecewise-constant busy/overlap integrals
// advanced before every state mutation.  The overlap integral
// (∫ copy_busy · gpu_busy dt) is exact because the owning GpuDevice invokes
// this engine's account() from the top of its own account() — every instant
// either device changes state, both integrals are brought up to now first.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/sim/specs.h"

namespace gg::sim {

class GpuDevice;

/// Cumulative activity counters; the experiment runner differences them per
/// iteration (IterationRecord::copy_busy_time / overlap_time).
struct CopyEngineCounters {
  /// Total time a transfer was in flight (seconds).
  double busy_integral{0.0};
  /// Time a transfer was in flight WHILE the GPU executed a kernel: the
  /// overlap the asynchronous stack wins back (seconds).
  double overlap_integral{0.0};
  /// Simulated bytes moved by completed transfers.
  double bytes_moved{0.0};
  std::uint64_t transfers_completed{0};
  /// Deepest the FIFO ever got (active transfer included).
  std::uint64_t peak_queue_depth{0};
};

class CopyEngine {
 public:
  using CompletionCallback = std::function<void()>;

  /// Binds to the queue, the bus timing model and the GPU whose kernel
  /// activity defines overlap.  Registers itself as the GPU's activity
  /// listener so both integrals advance in lockstep.
  CopyEngine(EventQueue& queue, BusSpec bus, GpuDevice& gpu);

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Enqueue a transfer of `bytes` simulated bytes; FIFO order.
  /// `on_complete` fires at the simulated completion instant.
  void submit(double bytes, CompletionCallback on_complete);

  [[nodiscard]] bool busy() const { return active_; }
  [[nodiscard]] std::size_t queued() const { return fifo_.size(); }
  [[nodiscard]] const BusSpec& bus() const { return bus_; }

  /// Counters valid as of queue.now(); advances internal accounting first.
  CopyEngineCounters counters();

  /// Integrate busy/overlap from the last accounting instant to queue.now().
  /// Reads the GPU's busy flag but never calls back into it.
  void account();

  /// Serialize the accounting state.  Only legal when quiescent (no active
  /// transfer, empty FIFO).
  void save(common::SnapshotWriter& w);
  void load(common::SnapshotReader& r);

 private:
  struct Transfer {
    double bytes{0.0};
    CompletionCallback on_complete;
  };

  void start_next_if_idle();
  void on_completion_event();

  EventQueue& queue_;
  BusSpec bus_;
  GpuDevice* gpu_;

  std::deque<Transfer> fifo_;
  bool active_{false};
  Transfer current_{};

  Seconds last_account_{0.0};
  CopyEngineCounters counters_{};
};

}  // namespace gg::sim
