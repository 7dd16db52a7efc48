#include "src/cudalite/api.h"

#include <cstring>

namespace gg::cudalite {

Runtime::Runtime(sim::Platform& platform, std::size_t pool_workers, bool sync_spin)
    : platform_(&platform), pool_workers_(pool_workers), sync_spin_(sync_spin) {
  schedulers_.reserve(platform.gpu_count());
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) {
    schedulers_.push_back(std::make_unique<StreamScheduler>(platform.gpu(i),
                                                            platform.copy_engine(i)));
  }
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s = stats_;
  for (std::size_t i = 0; i < platform_->gpu_count(); ++i) {
    s.overlapped_seconds += platform_->copy_engine(i).counters().overlap_integral;
  }
  for (const auto& sched : schedulers_) {
    s.peak_stream_depth = std::max<std::uint64_t>(s.peak_stream_depth,
                                                  sched->peak_stream_depth());
  }
  return s;
}

common::JobPool& Runtime::pool() {
  if (!pool_) pool_ = std::make_unique<common::JobPool>(pool_workers_);
  return *pool_;
}

void* Runtime::raw_alloc(std::size_t bytes, std::size_t alignment) {
  if (bytes == 0) throw std::invalid_argument("cudalite: zero-byte allocation");
  Allocation a;
  a.bytes = bytes;
  const auto align_up = [alignment](std::uintptr_t addr) {
    return (addr + alignment - 1) & ~(alignment - 1);
  };
  if (compute_enabled()) {
    a.storage = std::make_unique<std::byte[]>(bytes + alignment);
    a.aligned = reinterpret_cast<void*>(
        align_up(reinterpret_cast<std::uintptr_t>(a.storage.get())));
  } else {
    // Model-only storage is never read or written: keep only the alignment
    // slack, with the handle past its first byte — unique and non-null for
    // raw_free, and (malloc being at least as aligned) one past the end.
    a.storage = std::make_unique_for_overwrite<std::byte[]>(alignment);
    a.aligned = reinterpret_cast<void*>(
        align_up(reinterpret_cast<std::uintptr_t>(a.storage.get()) + 1));
  }
  void* result = a.aligned;
  allocations_.push_back(std::move(a));
  stats_.device_bytes_in_use += bytes;
  stats_.device_bytes_peak = std::max(stats_.device_bytes_peak, stats_.device_bytes_in_use);
  return result;
}

void Runtime::raw_free(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  for (auto it = allocations_.begin(); it != allocations_.end(); ++it) {
    if (it->aligned == p) {
      stats_.device_bytes_in_use -= it->bytes;
      allocations_.erase(it);
      return;
    }
  }
  (void)bytes;
  throw std::invalid_argument("cudalite: free of unknown device pointer");
}

void Runtime::charge_transfer(std::uint64_t bytes, bool h2d) {
  if (h2d) {
    ++stats_.h2d_copies;
    stats_.bytes_h2d += bytes;
  } else {
    ++stats_.d2h_copies;
    stats_.bytes_d2h += bytes;
  }
  auto& queue = platform_->queue();
  // Blocking copy: host spins for the duration unless the CPU is executing
  // its own divided chunk (the copy is issued from the GPU-owner pthread).
  const bool spin = sync_spin_ && !platform_->cpu().busy();
  if (spin) platform_->cpu().set_spinning(true);
  // The transfer rides the same DMA engine as async copies (FIFO behind any
  // in-flight ones); on an idle engine it completes at exactly the
  // synchronous stack's `now + transfer_time` instant.
  bool done = false;
  platform_->copy_engine(current_device_)
      .submit(static_cast<double>(bytes), [&done] { done = true; });
  while (!done) {
    if (!queue.step()) {
      if (spin) platform_->cpu().set_spinning(false);
      throw std::logic_error("cudalite: blocking copy but event queue is empty");
    }
  }
  // Fire co-timed events the synchronous run_until(deadline) would have
  // fired before returning control to the host.
  queue.run_until(queue.now());
  if (spin) platform_->cpu().set_spinning(false);
}

void Runtime::enqueue_kernel(Stream& stream, const sim::KernelWork& work,
                             std::function<void()> on_complete) {
  auto s = stream.state_;
  StreamScheduler* scheduler = schedulers_[s->device].get();
  StreamOp op;
  op.kind = StreamOp::Kind::kKernel;
  op.work = work;
  op.on_complete = [scheduler, s, cb = std::move(on_complete)] {
    --s->in_flight_kernel;
    --s->incomplete;
    scheduler->pump(s);
    if (cb) cb();
  };
  scheduler->enqueue(s, std::move(op));
}

void Runtime::enqueue_copy(Stream& stream, std::uint64_t bytes, bool h2d,
                           std::function<void()> on_complete) {
  if (h2d) {
    ++stats_.h2d_copies;
    stats_.bytes_h2d += bytes;
  } else {
    ++stats_.d2h_copies;
    stats_.bytes_d2h += bytes;
  }
  ++stats_.async_copies;
  auto s = stream.state_;
  StreamScheduler* scheduler = schedulers_[s->device].get();
  StreamOp op;
  op.kind = StreamOp::Kind::kCopy;
  op.bytes = static_cast<double>(bytes);
  op.on_complete = [scheduler, s, cb = std::move(on_complete)] {
    --s->in_flight_copy;
    --s->incomplete;
    scheduler->pump(s);
    if (cb) cb();
  };
  scheduler->enqueue(s, std::move(op));
}

void Runtime::stream_wait_event(Stream& stream, const Event& event) {
  auto s = stream.state_;
  StreamOp op;
  op.kind = StreamOp::Kind::kWaitEvent;
  op.event = event.state_;
  schedulers_[s->device]->enqueue(s, std::move(op));
}

void Runtime::set_device(std::size_t index) {
  if (index >= platform_->gpu_count()) {
    throw std::out_of_range("cudalite: device index out of range");
  }
  current_device_ = index;
}

Stream Runtime::create_stream() {
  return Stream{schedulers_[current_device_]->create_stream(current_device_)};
}

bool Runtime::admit(sim::FaultChannel channel, std::size_t device) {
  sim::FaultInjector* faults = platform_->faults();
  if (faults == nullptr) return true;
  const bool launch = channel == sim::FaultChannel::kLaunch;
  for (int attempt = 0;; ++attempt) {
    if (!(launch ? faults->draw_launch_fail(device) : faults->draw_host_fail())) {
      if (attempt > 0) {
        faults->note(channel, sim::FaultOutcome::kRetrySucceeded, device);
      }
      return true;
    }
    faults->note(channel,
                 launch ? sim::FaultOutcome::kLaunchFailed
                        : sim::FaultOutcome::kHostTaskFailed,
                 device);
    if (!hardened_ || attempt >= kMaxLaunchRetries) {
      if (hardened_) {
        faults->note(channel, sim::FaultOutcome::kRetriesExhausted, device);
      }
      ++(launch ? stats_.launches_rejected : stats_.host_tasks_rejected);
      return false;
    }
    ++stats_.launch_retries;
  }
}

bool Runtime::launch_range(Stream& stream, std::size_t n, const WorkEstimate& estimate,
                           const std::function<void(std::size_t, std::size_t)>& fn,
                           std::function<void()> on_complete) {
  if (n == 0) throw std::invalid_argument("cudalite: empty launch_range");
  if (!admit(sim::FaultChannel::kLaunch, stream.device())) return false;
  if (compute_enabled()) pool().run_chunks(n, fn);
  ++stats_.kernels_launched;
  enqueue_kernel(stream, estimate.to_kernel_work(), std::move(on_complete));
  return true;
}

Event Runtime::record_event(Stream& stream) {
  Event ev;
  auto s = stream.state_;
  if (s->incomplete == 0) {
    ev.state_->complete = true;
    ev.state_->when = platform_->now();
    return ev;
  }
  // Piggy-back on the device FIFO: a negligible marker kernel, stream-ordered
  // behind everything enqueued so far (the scheduler holds it back while any
  // prior copy is pending or in flight).
  sim::KernelWork marker;
  marker.units = 1.0;
  marker.overhead_per_unit = Seconds{1e-9};
  StreamScheduler* scheduler = schedulers_[s->device].get();
  auto* platform = platform_;
  StreamOp op;
  op.kind = StreamOp::Kind::kRecordEvent;
  op.work = marker;
  op.on_complete = [scheduler, s, state = ev.state_, platform] {
    --s->in_flight_kernel;
    --s->incomplete;
    state->complete = true;
    state->when = platform->now();
    scheduler->notify_event_complete(*state);
    scheduler->pump(s);
  };
  scheduler->enqueue(s, std::move(op));
  return ev;
}

bool Runtime::host_submit(const sim::CpuWork& work, const std::function<void()>& fn,
                          std::function<void()> on_complete) {
  if (!admit(sim::FaultChannel::kHostTask, 0)) return false;
  if (fn && compute_enabled()) fn();
  ++stats_.host_tasks;
  platform_->cpu().submit(work, std::move(on_complete));
  return true;
}

void Runtime::run_queue_until(const std::function<bool()>& done) {
  auto& queue = platform_->queue();
  auto& cpu = platform_->cpu();
  bool spun = false;
  while (!done()) {
    if (sync_spin_ && !cpu.busy() && !cpu.spinning()) {
      cpu.set_spinning(true);
      spun = true;
    }
    if (!queue.step()) {
      if (spun) cpu.set_spinning(false);
      throw std::logic_error("cudalite: waiting but event queue is empty");
    }
  }
  if (spun) cpu.set_spinning(false);
}

void Runtime::synchronize(Stream& stream) {
  auto s = stream.state_;
  run_queue_until([s] { return s->incomplete == 0; });
}

void Runtime::device_synchronize() {
  auto* platform = platform_;
  run_queue_until([platform] {
    if (platform->cpu().busy()) return false;
    for (std::size_t i = 0; i < platform->gpu_count(); ++i) {
      if (platform->gpu(i).busy()) return false;
      if (platform->copy_engine(i).busy()) return false;
    }
    return true;
  });
}

}  // namespace gg::cudalite
