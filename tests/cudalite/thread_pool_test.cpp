#include "src/cudalite/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace gg::cudalite {
namespace {

TEST(ThreadPool, WorkerCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksAreDisjointAndCovering) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for_chunks(777, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(m);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 777u);
}

TEST(ThreadPool, ChunkCountBoundedByN) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.chunk_count(0), 0u);
  EXPECT_EQ(pool.chunk_count(3), 3u);
  EXPECT_LE(pool.chunk_count(1000000), 8u * 4u);
}

TEST(ThreadPool, ExceptionPropagatesToSubmitter) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ManyBackToBackBatches) {
  // Regression test for the batch-lifetime race: rapid successive batches
  // must not crash or lose work.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, LargeNSmallPool) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(100000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 99999ull * 100000ull / 2ull);
}

}  // namespace
}  // namespace gg::cudalite
