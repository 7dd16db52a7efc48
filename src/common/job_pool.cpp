#include "src/common/job_pool.h"

#include <algorithm>

namespace gg::common {

JobPool::JobPool(std::size_t workers) {
  worker_target_ =
      workers ? workers
              : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // The submitting thread participates in every batch, so spawn one fewer.
  const std::size_t spawn = worker_target_ - 1;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobPool::~JobPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void JobPool::drain(std::unique_lock<std::mutex>& lock,
                    const std::shared_ptr<Batch>& batch) {
  for (;;) {
    if (batch->failed || batch->next >= batch->n) return;
    const std::size_t index = batch->next++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*batch->fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    ++batch->done;
    if (error) {
      batch->failed = true;
      batch->errors.emplace_back(index, error);
    }
    if (batch->done == batch->next && (batch->next == batch->n || batch->failed)) {
      done_cv_.notify_all();
    }
  }
}

void JobPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || current_ != nullptr; });
    if (shutdown_) return;
    const std::shared_ptr<Batch> batch = current_;
    drain(lock, batch);
    // Park until the batch is retired so a fast worker does not spin on an
    // exhausted batch.
    done_cv_.wait(lock, [this, &batch] { return shutdown_ || current_ != batch; });
    if (shutdown_) return;
  }
}

void JobPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (worker_target_ <= 1 || n == 1) {
    // Serial fast path: no threads involved, exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;

  std::unique_lock<std::mutex> lock(mutex_);
  current_ = batch;
  work_cv_.notify_all();
  drain(lock, batch);
  done_cv_.wait(lock, [&batch] {
    return batch->done == batch->next && (batch->next == batch->n || batch->failed);
  });
  current_.reset();
  done_cv_.notify_all();  // release workers parked on this batch

  if (!batch->errors.empty()) {
    const auto lowest = std::min_element(
        batch->errors.begin(), batch->errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::exception_ptr error = lowest->second;
    // Release the recorded exceptions here: a worker may drop the last
    // reference to the batch, and the caller still reads the one rethrown.
    batch->errors.clear();
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void JobPool::run_chunks(std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t chunks = chunk_count(n);
  if (chunks == 0) return;
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  run(chunks, [&fn, base, extra](std::size_t chunk) {
    const std::size_t begin = chunk * base + std::min(chunk, extra);
    fn(begin, begin + base + (chunk < extra ? 1 : 0));
  });
}

}  // namespace gg::common
