#include "src/common/job_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gg::common {
namespace {

TEST(JobPoolTest, WorkerCountDefaultsToAtLeastOne) {
  JobPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
  JobPool three(3);
  EXPECT_EQ(three.worker_count(), 3u);
}

TEST(JobPoolTest, RunVisitsEveryIndexExactlyOnce) {
  JobPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  pool.run(visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(JobPoolTest, ZeroTasksIsANoOp) {
  JobPool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(JobPoolTest, SingleTaskRunsInline) {
  JobPool pool(8);
  int value = 0;
  pool.run(1, [&](std::size_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(JobPoolTest, MapWritesIndexDeterminedSlots) {
  JobPool pool(4);
  std::vector<int> out(64, -1);
  pool.run(out.size(), [&out](std::size_t i) { out[i] = static_cast<int>(i * i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(JobPoolTest, ResultsIdenticalForAnyWorkerCount) {
  auto compute = [](std::size_t workers) {
    JobPool pool(workers);
    std::vector<double> out(200);
    pool.run(out.size(), [&out](std::size_t i) {
      double x = 1.0;
      for (std::size_t k = 0; k < i % 17; ++k) x = x * 1.25 + static_cast<double>(i);
      out[i] = x;
    });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(8));
}

TEST(JobPoolTest, LowestIndexExceptionWins) {
  JobPool pool(4);
  try {
    pool.run(32, [](std::size_t i) {
      if (i == 7 || i == 23) {
        throw std::runtime_error("job " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 7");
  }
}

TEST(JobPoolTest, NoNewIndicesAfterFailure) {
  JobPool pool(2);
  std::atomic<std::size_t> started{0};
  std::atomic<bool> failing_job_started{false};
  EXPECT_THROW(
      pool.run(1000,
               [&](std::size_t i) {
                 started.fetch_add(1);
                 if (i == 0) {
                   failing_job_started.store(true);
                   throw std::logic_error("first job fails");
                 }
                 // Other jobs cannot finish before job 0 is underway, and each
                 // then takes ~1ms, so the second worker cannot drain the
                 // 999-job tail inside job 0's throw-to-record window (which
                 // made the original zero-cost jobs flaky under machine load).
                 while (!failing_job_started.load()) std::this_thread::yield();
                 std::this_thread::sleep_for(std::chrono::milliseconds(1));
               }),
      std::logic_error);
  // In-flight jobs may finish, but the tail of the batch is never issued.
  EXPECT_LT(started.load(), 1000u);
}

TEST(JobPoolTest, PoolIsReusableAfterAnException) {
  JobPool pool(4);
  EXPECT_THROW(pool.run(8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.run(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(JobPoolTest, BackToBackBatches) {
  JobPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out(round + 1, -1);
    pool.run(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
    const int expect = (round * (round + 1)) / 2;
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), expect);
  }
}

TEST(JobPoolTest, RunBatchesCoversEveryIndexExactlyOnce) {
  JobPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.run_batches(n, 4, [&](std::size_t first, std::size_t last) {
      ASSERT_LT(first, last);
      ASSERT_LE(last, n);
      for (std::size_t i = first; i < last; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(JobPoolTest, RunBatchesGroupsAreContiguousAndAligned) {
  JobPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  pool.run_batches(10, 4, [&](std::size_t first, std::size_t last) {
    groups.emplace_back(first, last);
  });
  const std::vector<std::pair<std::size_t, std::size_t>> expect{
      {0, 4}, {4, 8}, {8, 10}};
  EXPECT_EQ(groups, expect);
}

TEST(JobPoolTest, RunBatchesZeroBatchBehavesAsSize1) {
  JobPool pool(2);
  std::atomic<int> calls{0};
  pool.run_batches(5, 0, [&](std::size_t first, std::size_t last) {
    EXPECT_EQ(last, first + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 5);
}

TEST(JobPoolTest, RunBatchesPropagatesExceptions) {
  JobPool pool(2);
  EXPECT_THROW(pool.run_batches(8, 3,
                                [](std::size_t first, std::size_t) {
                                  if (first == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

// The kernel executor: run_chunks() as cudalite::Runtime::launch_range
// drives it.  The suite keeps the name of the cudalite thread pool these
// cases were first written against.

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

Ranges chunk_ranges(JobPool& pool, std::size_t n) {
  Ranges ranges;
  std::mutex mu;
  pool.run_chunks(n, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(ThreadPool, WorkerCountDefaultsToHardware) {
  JobPool pool;
  EXPECT_EQ(pool.worker_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, ExplicitWorkerCount) {
  JobPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.chunk_count(1000000), 12u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  JobPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_chunks(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  JobPool pool(2);
  bool called = false;
  pool.run_chunks(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksAreDisjointAndCovering) {
  // The partition kernels reduce over: chunk_count(n) contiguous chunks in
  // index order, the first n % chunks one item longer, on every pool size.
  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    JobPool pool(workers);
    for (const std::size_t n : {1u, 3u, 28u, 29u, 777u, 100000u}) {
      const Ranges ranges = chunk_ranges(pool, n);
      const std::size_t chunks = pool.chunk_count(n);
      ASSERT_EQ(ranges.size(), chunks) << workers << " workers, n=" << n;
      std::size_t begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t size = n / chunks + (c < n % chunks ? 1 : 0);
        EXPECT_EQ(ranges[c], std::make_pair(begin, begin + size))
            << workers << " workers, n=" << n << ", chunk " << c;
        begin += size;
      }
      EXPECT_EQ(begin, n);
    }
  }
}

TEST(ThreadPool, ChunkCountBoundedByN) {
  for (const std::size_t workers : {1u, 3u, 8u}) {
    JobPool pool(workers);
    EXPECT_EQ(pool.chunk_count(0), 0u);
    EXPECT_EQ(pool.chunk_count(3), 3u);
    EXPECT_EQ(pool.chunk_count(1000000), 4 * workers);
  }
}

TEST(ThreadPool, ExceptionPropagatesToSubmitter) {
  // 16 chunks of 10 items, two of them throw: the lower chunk's exception
  // reaches the submitter, and the pool stays usable.
  JobPool pool(4);
  try {
    pool.run_chunks(160, [](std::size_t begin, std::size_t) {
      if (begin == 50 || begin == 120) {
        throw std::runtime_error("chunk at " + std::to_string(begin));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk at 50");
  }
  std::atomic<int> items{0};
  pool.run_chunks(10, [&](std::size_t begin, std::size_t end) {
    items.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(items.load(), 10);
}

TEST(ThreadPool, ManyBackToBackBatches) {
  // Rapid successive batches must not crash or lose work.
  JobPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> items{0};
    pool.run_chunks(50, [&](std::size_t begin, std::size_t end) {
      items.fetch_add(static_cast<int>(end - begin));
    });
    ASSERT_EQ(items.load(), 50);
  }
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  // A 1-worker pool spawns no thread: every chunk runs on the caller.
  JobPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> items{0};
  std::atomic<bool> off_caller{false};
  pool.run_chunks(100, [&](std::size_t begin, std::size_t end) {
    if (std::this_thread::get_id() != caller) off_caller.store(true);
    items.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(items.load(), 100);
  EXPECT_FALSE(off_caller.load());
}

TEST(ThreadPool, LargeNSmallPool) {
  JobPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.run_chunks(100000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99999ull * 100000ull / 2ull);
}

}  // namespace
}  // namespace gg::common
