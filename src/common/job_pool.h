// Fixed-size worker pool for batches of independent, index-addressed jobs —
// the one host executor: campaign cells and bench sweeps (run,
// run_batches), cudalite kernel chunks (run_chunks) and the verify
// references (run over fixed blocks).
//
// The pool is deliberately work-stealing-free: a batch is a contiguous index
// range claimed in order from one shared counter, and every job writes its
// result to an index-determined slot.  Nothing about the output depends on
// which worker ran a job or in what order jobs finished, so callers get
// byte-identical results for any worker count.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"

namespace gg::common {

class JobPool {
 public:
  /// `workers` = 0 selects hardware_concurrency (at least 1).  A pool with
  /// one worker runs every batch inline on the submitting thread.
  explicit JobPool(std::size_t workers = 0);
  ~JobPool() GG_NO_THREAD_SAFETY_ANALYSIS;  // lock_guard opaque to analysis

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return worker_target_; }

  /// Run fn(i) for i in [0, n); blocks until every started job finished.
  /// After the first exception no further indices are issued; once in-flight
  /// jobs drain, the recorded exception with the lowest index is rethrown.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn)
      GG_NO_THREAD_SAFETY_ANALYSIS;

  /// Number of chunks run_chunks() cuts n items into: min(n, 4 x
  /// worker_count()).  Four per runner bounds the tail imbalance.
  [[nodiscard]] std::size_t chunk_count(std::size_t n) const {
    return std::min(n, 4 * worker_target_);
  }

  /// Run fn(begin, end) over chunk_count(n) contiguous chunks covering
  /// [0, n), the first n % chunk_count(n) of them one item longer.  Chunk
  /// boundaries depend on n and worker_count() only, never on scheduling, so
  /// a kernel that reduces per chunk gets the same bits on every run.
  /// Exceptions follow run()'s rule.
  void run_chunks(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Run fn(first, last) over the ceil(n / batch) contiguous groups
  /// [g*batch, min(n, (g+1)*batch)); the work unit handed to a worker is a
  /// whole group, never a single index.  The batch campaign engine uses this
  /// to keep one workload's cells on one worker (its verification memo and
  /// warm-up prefix snapshots are per-group state).  Same determinism
  /// contract as run(): groups land in index-determined slots, so results
  /// are byte-identical for any worker count.
  void run_batches(std::size_t n, std::size_t batch,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
    if (batch == 0) batch = 1;
    const std::size_t groups = n / batch + (n % batch != 0 ? 1 : 0);
    run(groups, [&](std::size_t g) {
      const std::size_t first = g * batch;
      const std::size_t last = std::min(n, first + batch);
      fn(first, last);
    });
  }

 private:
  /// All Batch fields are protected by the owning pool's mutex_ while the
  /// lock is held across claim/retire transitions; jobs themselves run
  /// unlocked (the index hand-off is the synchronization point).
  struct Batch {
    std::size_t n{0};
    std::size_t next{0};
    std::size_t done{0};
    bool failed{false};
    const std::function<void(std::size_t)>* fn{nullptr};
    /// (index, exception) pairs; the lowest index wins deterministically.
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  };

  /// Lock juggling through std::unique_lock (unannotated in libstdc++) is
  /// opaque to Clang's analysis, hence the explicit opt-outs; the
  /// GG_GUARDED_BY contracts below still police every other accessor.
  void worker_loop() GG_NO_THREAD_SAFETY_ANALYSIS;
  /// Claim and run jobs from `batch` until it is exhausted; returns with the
  /// pool mutex held (callers pass the lock they already own).
  void drain(std::unique_lock<std::mutex>& lock, const std::shared_ptr<Batch>& batch)
      GG_NO_THREAD_SAFETY_ANALYSIS;

  std::size_t worker_target_{1};
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> current_ GG_GUARDED_BY(mutex_);
  bool shutdown_ GG_GUARDED_BY(mutex_){false};
};

}  // namespace gg::common
