// Host thread pool backing cudalite kernel execution.
//
// Kernels in this reproduction really compute (results are verified against
// scalar references), so launches need a parallel executor.  The pool provides
// `parallel_for` with static chunking and an ordered map-reduce so floating
// point reductions stay bit-deterministic regardless of worker timing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace gg::cudalite {

class ThreadPool {
 public:
  /// `workers` = 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool() GG_NO_THREAD_SAFETY_ANALYSIS;  // lock_guard opaque to analysis

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n) across the pool; blocks until done.
  /// Exceptions from fn propagate (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Run fn(begin, end) over disjoint chunks covering [0, n); blocks.
  /// Chunk boundaries are deterministic (independent of scheduling).
  void parallel_for_chunks(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Number of chunks `parallel_for_chunks` will use for n items.
  [[nodiscard]] std::size_t chunk_count(std::size_t n) const;

 private:
  struct Batch {
    std::size_t chunks{0};
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::function<void(std::size_t)> run_chunk;  // takes chunk index
    /// First exception wins; read by the submitter only after the done_cv_
    /// wait establishes a happens-before with every worker.
    std::exception_ptr error GG_GUARDED_BY(error_mutex);
    std::mutex error_mutex;
  };

  /// std::unique_lock / condition_variable juggling is opaque to Clang's
  /// analysis (libstdc++ primitives are unannotated); the GG_GUARDED_BY
  /// contracts still police any new accessor.
  void worker_loop() GG_NO_THREAD_SAFETY_ANALYSIS;
  void run_chunks(const std::shared_ptr<Batch>& batch) GG_NO_THREAD_SAFETY_ANALYSIS;
  void parallel_chunk_indices(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
      GG_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Shared ownership: workers hold a reference while executing, so the batch
  // outlives the submitting call even if a worker wakes late.
  std::shared_ptr<Batch> current_ GG_GUARDED_BY(mutex_);
  bool shutdown_ GG_GUARDED_BY(mutex_){false};
};

}  // namespace gg::cudalite
