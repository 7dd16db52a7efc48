// cudalite: a CUDA-3.2-style host runtime bound to the simulated platform.
//
// The paper's workload-division tier is plain application code: pthreads that
// launch CUDA kernels on the GPU and worker kernels on the CPU cores, with the
// data size of every launch adjustable per iteration.  cudalite reproduces
// that programming structure offline:
//
//  * kernels REALLY execute (on a host thread pool) so results can be
//    validated, and
//  * every launch carries a `WorkEstimate` that drives the simulated GPU's
//    timing/energy model, so controllers observe realistic signals.
//
// Synchronous semantics follow CUDA 3.2 on a GeForce 8800: one kernel at a
// time per device, blocking memcpys, and busy-wait synchronization (the host
// spins at 100 % CPU while waiting — the behaviour that defeats the ondemand
// governor in Section VII-A).
//
// On top of that baseline the runtime also exposes the asynchronous stack
// (the hypothetical one discussed with Fig. 6c, now real): per-device
// StreamSchedulers issue from multiple in-order streams into the kernel FIFO
// and the DMA copy-engine FIFO, `memcpy_h2d_async`/`memcpy_d2h_async`
// overlap transfers with kernel execution in simulated time, and
// `stream_wait_event` expresses cross-stream dependency edges.  Real data
// still moves eagerly at enqueue, in host program order — a stronger
// guarantee than pinned-memory cudaMemcpyAsync, which keeps verification
// simple while the simulated schedule overlaps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/job_pool.h"
#include "src/cudalite/stream_scheduler.h"
#include "src/sim/platform.h"

namespace gg::cudalite {

/// Work metrics of one launch, consumed by the GPU timing/energy model.
/// Profiles in `workloads/` compute these from problem sizes.
struct WorkEstimate {
  double units{1.0};
  double core_cycles_per_unit{0.0};
  double mem_bytes_per_unit{0.0};
  double overhead_per_unit_s{0.0};

  [[nodiscard]] sim::KernelWork to_kernel_work() const {
    return sim::KernelWork{units, core_cycles_per_unit, mem_bytes_per_unit,
                           Seconds{overhead_per_unit_s}};
  }
};

class Runtime;

/// What a launch really executes.
///
///  * kFull — kernels and host chunks run on the pool and memcpys move real
///    bytes (the default; results can be verified against scalar references).
///  * kModelOnly — the real computation and data movement are skipped while
///    EVERY simulated side effect (work submission, transfer charges, fault
///    draws, completion callbacks) happens identically.  Simulated timing,
///    energy and controller decisions are bit-identical to kFull by
///    construction, because real kernel output never feeds the model.  No
///    real data exists either: workloads build no inputs, and a device
///    allocation reserves no host bytes beyond its alignment slack (its
///    pointer stays unique for `free`, and any touch overruns the block).
///    The `device_bytes_*` statistics still count the full simulated size.
///    Every simulated size (allocations, transfer counts, item counts) comes
///    from the workload's config, never from a host buffer.  This is the
///    cell-stepping mode of the batched campaign engine, which memoizes one
///    kFull execution per workload for verification instead.
enum class ComputeMode {
  kFull,
  kModelOnly,
};

/// Typed handle to device memory.  Device memory is owned by the Runtime and
/// freed when the Runtime dies (or via Runtime::free).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool valid() const { return data_ != nullptr; }

  /// Raw device-side pointer: cudalite kernels may touch device memory
  /// directly (they run on the host), mirroring `__global__` code
  /// dereferencing device pointers.
  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) const { return data_[i]; }

 private:
  friend class Runtime;
  DeviceBuffer(T* data, std::size_t size) : data_(data), size_(size) {}
  T* data_{nullptr};
  std::size_t size_{0};
};

/// In-order execution stream backed by the per-device StreamScheduler: ops
/// enqueue in host program order and issue into the kernel/copy-engine FIFOs
/// as far as ordering allows.  A stream is bound to the device that was
/// current when it was created, CUDA-style.
class Stream {
 public:
  /// Ops enqueued to this stream and not yet completed (in simulated time).
  [[nodiscard]] std::size_t outstanding() const { return state_->incomplete; }
  [[nodiscard]] std::size_t device() const { return state_->device; }
  /// Deepest the pending-op queue ever got (per-stream depth signal).
  [[nodiscard]] std::size_t peak_pending() const { return state_->peak_pending; }

 private:
  friend class Runtime;
  explicit Stream(std::shared_ptr<StreamState> state) : state_(std::move(state)) {}
  std::shared_ptr<StreamState> state_;
};

/// Timestamp marker, CUDA-event style: records simulated completion time.
/// Streams can wait on it (`Runtime::stream_wait_event`) without blocking
/// the host.
class Event {
 public:
  [[nodiscard]] bool complete() const { return state_->complete; }
  /// Simulated time the event fired; throws if not complete.
  [[nodiscard]] Seconds time() const {
    if (!state_->complete) throw std::logic_error("Event: not complete");
    return state_->when;
  }

 private:
  friend class Runtime;
  Event() : state_(std::make_shared<EventState>()) {}
  std::shared_ptr<EventState> state_;
};

/// Runtime statistics (for tests and the characterization bench).
struct RuntimeStats {
  std::uint64_t kernels_launched{0};
  std::uint64_t host_tasks{0};
  std::uint64_t h2d_copies{0};
  std::uint64_t d2h_copies{0};
  /// Simulated bytes moved, exact integer accounting: doubles silently lose
  /// precision past 2^53 bytes on long streaming runs.
  std::uint64_t bytes_h2d{0};
  std::uint64_t bytes_d2h{0};
  /// Copies issued through the asynchronous stream API.
  std::uint64_t async_copies{0};
  /// Seconds a DMA transfer was in flight while a kernel executed, summed
  /// over every device's copy engine (filled by stats()).
  double overlapped_seconds{0.0};
  /// Deepest any stream's pending-op queue ever got (filled by stats()).
  std::uint64_t peak_stream_depth{0};
  std::size_t device_bytes_in_use{0};
  std::size_t device_bytes_peak{0};
  /// Fault-layer accounting: transient failures re-drawn within a launch
  /// call, and launches/host submissions that failed for good.
  std::uint64_t launch_retries{0};
  std::uint64_t launches_rejected{0};
  std::uint64_t host_tasks_rejected{0};
};

/// Immediate re-tries of a transiently rejected launch / host submission on
/// a hardened runtime (see sim/fault.h).
inline constexpr int kMaxLaunchRetries = 3;

class Runtime {
 public:
  /// Bind to a platform.  `pool_workers` = 0 picks hardware concurrency.
  /// `sync_spin` models CUDA 3.2 blocking synchronization (host spins at
  /// 100 % while waiting for the GPU); set false for the hypothetical
  /// asynchronous stack discussed with Fig. 6c.
  explicit Runtime(sim::Platform& platform, std::size_t pool_workers = 0,
                   bool sync_spin = true);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::Platform& platform() { return *platform_; }
  /// The host execution pool (`pool_workers` runners: this thread plus
  /// `pool_workers` - 1 workers).  Created on first use so model-only
  /// runtimes never pay the worker-thread spawn.
  [[nodiscard]] common::JobPool& pool();
  /// Counters valid as of now: the copy-engine overlap and stream-depth
  /// fields are derived from the platform/schedulers at call time.
  [[nodiscard]] RuntimeStats stats() const;
  [[nodiscard]] bool sync_spin() const { return sync_spin_; }
  [[nodiscard]] ComputeMode compute_mode() const { return compute_mode_; }
  void set_compute_mode(ComputeMode mode) { compute_mode_ = mode; }
  /// True when real computation runs (kFull).  Workloads consult this before
  /// doing host-side data work whose only consumer is verify().
  [[nodiscard]] bool compute_enabled() const {
    return compute_mode_ == ComputeMode::kFull;
  }
  /// Tolerance of injected faults.  Un-hardened (the default), a transient
  /// launch fault surfaces to the caller immediately.  Hardened, the launch
  /// paths re-try up to kMaxLaunchRetries times and `ProfiledWorkload`
  /// routes a failed slot's item range to a surviving slot.
  [[nodiscard]] bool hardened() const { return hardened_; }
  void set_hardened(bool hardened) { hardened_ = hardened; }

  // --- Device selection (cudaSetDevice-style) ------------------------------
  [[nodiscard]] std::size_t device_count() const { return platform_->gpu_count(); }
  /// Select the device subsequent create_stream calls bind to.
  void set_device(std::size_t index);
  [[nodiscard]] std::size_t current_device() const { return current_device_; }

  // --- Device memory ------------------------------------------------------
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count) {
    void* p = raw_alloc(count * sizeof(T), alignof(T));
    return DeviceBuffer<T>{static_cast<T*>(p), count};
  }
  template <typename T>
  void free(DeviceBuffer<T>& buf) {
    raw_free(buf.data(), buf.size() * sizeof(T));
    buf = DeviceBuffer<T>{};
  }

  /// Blocking host-to-device copy: copies bytes and advances simulated time
  /// by the bus transfer duration (host spins meanwhile, if sync_spin).
  /// Uploads take an explicit count, never a host vector's size: a
  /// workload's host buffers are empty under kModelOnly, and the charge
  /// must not depend on that.
  template <typename T>
  void memcpy_h2d(DeviceBuffer<T>& dst, const T* src, std::size_t count) {
    check_range(dst, count, "memcpy_h2d");
    if (compute_enabled()) std::copy(src, src + count, dst.data());
    charge_transfer(count * sizeof(T), /*h2d=*/true);
  }
  template <typename T>
  void memcpy_d2h(T* dst, const DeviceBuffer<T>& src, std::size_t count) {
    check_range(src, count, "memcpy_d2h");
    if (compute_enabled()) std::copy(src.data(), src.data() + count, dst);
    charge_transfer(count * sizeof(T), /*h2d=*/false);
  }
  /// Whole-buffer download; `dst` is resized only when bytes actually move.
  template <typename T>
  void memcpy_d2h(std::vector<T>& dst, const DeviceBuffer<T>& src) {
    if (compute_enabled()) dst.resize(src.size());
    memcpy_d2h(dst.data(), src, src.size());
  }

  // --- Asynchronous copies (stream-ordered, overlap with kernels) ----------
  /// Enqueue a host-to-device copy on `stream`.  Real bytes move eagerly at
  /// enqueue (host program order); the SIMULATED transfer advances on the
  /// device's DMA copy engine concurrently with kernel execution, charging
  /// `sim_bytes` bytes when > 0 (decoupling simulated transfer size from the
  /// real buffer, exactly like WorkEstimate decouples kernel cost), else the
  /// real byte count.  `on_complete` fires at the simulated completion.
  template <typename T>
  void memcpy_h2d_async(Stream& stream, DeviceBuffer<T>& dst, const T* src,
                        std::size_t count, double sim_bytes = 0.0,
                        std::function<void()> on_complete = {}) {
    check_range(dst, count, "memcpy_h2d_async");
    if (compute_enabled()) std::copy(src, src + count, dst.data());
    enqueue_copy(stream, effective_bytes(count * sizeof(T), sim_bytes),
                 /*h2d=*/true, std::move(on_complete));
  }
  /// Device-to-host counterpart; same eager-data / simulated-transfer split.
  template <typename T>
  void memcpy_d2h_async(Stream& stream, T* dst, const DeviceBuffer<T>& src,
                        std::size_t count, double sim_bytes = 0.0,
                        std::function<void()> on_complete = {}) {
    check_range(src, count, "memcpy_d2h_async");
    if (compute_enabled()) std::copy(src.data(), src.data() + count, dst);
    enqueue_copy(stream, effective_bytes(count * sizeof(T), sim_bytes),
                 /*h2d=*/false, std::move(on_complete));
  }

  // --- Kernel launch ------------------------------------------------------
  [[nodiscard]] Stream create_stream();

  /// Launch a 1D data-parallel kernel: `fn(begin, end)` over the pool's
  /// `run_chunks` partition of [0, n).  Computation happens now (host pool);
  /// simulated completion is governed by `estimate`.  Optional `on_complete`
  /// fires at the simulated completion.  Returns false when the platform's
  /// fault injector rejected the launch (after kMaxLaunchRetries re-tries
  /// when hardened): nothing was executed or submitted, and `on_complete`
  /// will never fire.
  bool launch_range(Stream& stream, std::size_t n, const WorkEstimate& estimate,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::function<void()> on_complete = {});

  /// Record an event that completes when all work submitted to `stream` so
  /// far has finished (in simulated time).
  [[nodiscard]] Event record_event(Stream& stream);

  /// Make all ops enqueued to `stream` AFTER this call wait (in simulated
  /// time, without blocking the host) until `event` completes — the
  /// cross-stream dependency edge of a pipeline.
  void stream_wait_event(Stream& stream, const Event& event);

  // --- Host-side tasks (the CPU chunk of a divided iteration) -------------
  /// Execute `fn` now on the pool and submit `work` to the simulated CPU;
  /// `on_complete` fires at the simulated completion.  Returns false when
  /// the fault injector rejected the chunk (nothing ran; same contract as
  /// `launch_range`).
  bool host_submit(const sim::CpuWork& work, const std::function<void()>& fn,
                   std::function<void()> on_complete = {});

  // --- Synchronization ----------------------------------------------------
  /// Block (in simulated time) until the stream drains.
  void synchronize(Stream& stream);
  /// Block until both devices are idle and all submitted work retired.
  void device_synchronize();
  /// Block until `done()` becomes true, driving the event queue; the host
  /// spins (if sync_spin) whenever the CPU is otherwise idle — the join
  /// barrier of the pthreads structure.
  void wait_until(const std::function<bool()>& done) { run_queue_until(done); }

 private:
  void* raw_alloc(std::size_t bytes, std::size_t alignment);
  void raw_free(void* p, std::size_t bytes);
  /// Blocking transfer: submits to the current device's copy engine and
  /// drives the queue until it completes (host spins meanwhile, if
  /// sync_spin).  With an idle engine this reproduces the synchronous
  /// `now + transfer_time` completion instant bit-for-bit.
  void charge_transfer(std::uint64_t bytes, bool h2d);
  /// Stream-ordered transfer: stats + pre-built completion closure into the
  /// scheduler.
  void enqueue_copy(Stream& stream, std::uint64_t bytes, bool h2d,
                    std::function<void()> on_complete);
  void enqueue_kernel(Stream& stream, const sim::KernelWork& work,
                      std::function<void()> on_complete);
  [[nodiscard]] static std::uint64_t effective_bytes(std::size_t real_bytes,
                                                     double sim_bytes) {
    return sim_bytes > 0.0 ? static_cast<std::uint64_t>(sim_bytes)
                           : static_cast<std::uint64_t>(real_bytes);
  }
  template <typename T>
  static void check_range(const DeviceBuffer<T>& buf, std::size_t count, const char* what) {
    if (!buf.valid() || count > buf.size()) {
      throw std::out_of_range(std::string(what) + ": range exceeds device buffer");
    }
  }
  /// Drive the event queue until `done()` is true, managing the spin state.
  void run_queue_until(const std::function<bool()>& done);
  /// Draw a launch or host-task fault on `channel` (with bounded re-tries);
  /// true = admit.  Host tasks are noted against device 0.
  bool admit(sim::FaultChannel channel, std::size_t device);

  sim::Platform* platform_;
  std::unique_ptr<common::JobPool> pool_;  // lazy, see pool()
  std::size_t pool_workers_;
  bool sync_spin_;
  ComputeMode compute_mode_{ComputeMode::kFull};
  std::size_t current_device_{0};
  RuntimeStats stats_;
  bool hardened_{false};
  /// One scheduler per device, created up front (cheap, no threads).
  std::vector<std::unique_ptr<StreamScheduler>> schedulers_;

  struct Allocation {
    std::unique_ptr<std::byte[]> storage;
    void* aligned{nullptr};
    std::size_t bytes{0};
  };
  std::vector<Allocation> allocations_;
};

}  // namespace gg::cudalite
