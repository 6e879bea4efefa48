// Tests for the thread pool substrate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRespectsGrain) {
  ThreadPool pool(8);
  std::atomic<std::size_t> blocks{0};
  pool.parallel_for(0, 100, 100, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
    blocks.fetch_add(1);
  });
  EXPECT_EQ(blocks.load(), 1u);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> values(200000);
  std::iota(values.begin(), values.end(), 0.0);
  std::atomic<long long> parallel_sum{0};
  pool.parallel_for(0, values.size(), 1024,
                    [&](std::size_t lo, std::size_t hi) {
                      long long local = 0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        local += static_cast<long long>(values[i]);
                      }
                      parallel_sum.fetch_add(local);
                    });
  const long long expect =
      static_cast<long long>(values.size()) *
      static_cast<long long>(values.size() - 1) / 2;
  EXPECT_EQ(parallel_sum.load(), expect);
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingBlock) {
  ThreadPool pool(4);
  // 16 items over 4 threads: one item per block. Block 11 fails at once,
  // block 5 only after a pause, so the rethrow follows block order, not
  // the order in which failures happened.
  std::vector<std::atomic<int>> ran(16);
  std::string message;
  try {
    pool.parallel_for(0, ran.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        ran[i].fetch_add(1);
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw Error("block 5 failed");
        }
        if (i == 11) throw Error("block 11 failed");
      }
    });
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("block 5 failed"), std::string::npos) << message;
  for (const auto& r : ran) {
    EXPECT_EQ(r.load(), 1);
  }
  // The pool stays usable after a failed call.
  std::atomic<int> after{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, NestedSubmitFromParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      counter.fetch_add(1);
    }
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace dlcomp
