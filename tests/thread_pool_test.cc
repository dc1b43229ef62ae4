// Tests for util::ThreadPool, in particular the generation-tagged ticket
// that keeps stragglers from one ParallelFor batch from claiming or
// completing indices of the next one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/thread_pool.h"

namespace fume {
namespace util {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{64}, size_t{999}}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> max_worker{0};
    pool.ParallelFor(n, [&](int worker, size_t i) {
      int prev = max_worker.load(std::memory_order_relaxed);
      while (prev < worker && !max_worker.compare_exchange_weak(prev, worker)) {
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
    EXPECT_LT(max_worker.load(), pool.num_threads());
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(17, 0);
  pool.ParallelFor(hits.size(), [&](int worker, size_t i) {
    EXPECT_EQ(worker, 0);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  pool.ParallelFor(0, [&](int, size_t) { FAIL() << "n = 0 must not run fn"; });
}

TEST(ThreadPoolTest, WritesAreVisibleAfterReturn) {
  ThreadPool pool(4);
  std::vector<int64_t> out(513, -1);
  pool.ParallelFor(out.size(), [&](int, size_t i) {
    out[i] = static_cast<int64_t>(i) * 2 + 1;
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>(i) * 2 + 1);
  }
}

// Regression for a straggler race across batch generations: a worker
// delayed between claiming an index and checking the batch bound could
// observe the NEXT batch's job instead — duplicating an index that the
// fresh claim counter hands out again, double-counting completion, and
// letting ParallelFor return while a job still ran against stack-scoped
// captures. Tight back-to-back batches of varying tiny sizes maximize
// generation turnover; each batch's stack-local tally must come out
// exactly one hit per index (ASan/TSan additionally catch a late write).
TEST(ThreadPoolTest, BackToBackBatchesDoNotLeakAcrossGenerations) {
  ThreadPool pool(8);
  for (int round = 0; round < 3000; ++round) {
    const size_t n = 2 + static_cast<size_t>(round % 6);
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](int, size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << "round " << round << " index " << i << " of " << n;
    }
  }
}

// ParallelFor's no-reentry contract is checked, not just documented: a
// job that calls ParallelFor on its own pool would hand out worker id 0,
// which its caller holds, and then wait for itself forever. It aborts
// instead, on a pool with parked workers and on one that runs inline.
TEST(ThreadPoolDeathTest, NestedParallelForOnTheSamePoolAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.ParallelFor(2, [&pool](int, size_t) {
          pool.ParallelFor(2, [](int, size_t) {});
        });
      },
      "ParallelFor called from a job of the same pool");
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.ParallelFor(3, [&pool](int, size_t) {
          pool.ParallelFor(1, [](int, size_t) {});
        });
      },
      "ParallelFor called from a job of the same pool");
}

// The contract is per pool: a job may fan out on a different pool (one
// caller at a time, like any ParallelFor), and the marker is cleared once
// the outer call returns.
TEST(ThreadPoolTest, JobsMayFanOutOnAnotherPool) {
  ThreadPool outer(2);
  ThreadPool inner(3);
  std::vector<std::atomic<int>> hits(5);
  outer.ParallelFor(2, [&](int, size_t i) {
    if (i != 0) return;
    inner.ParallelFor(hits.size(), [&](int, size_t j) {
      hits[j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  outer.ParallelFor(2, [&](int, size_t) {});
}

}  // namespace
}  // namespace util
}  // namespace fume
