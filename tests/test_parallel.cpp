#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dsbfs::util {
namespace {

TEST(Parallel, CoversEveryIndexOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ChunksPartitionTheRange) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(10, 100010, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100000u);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for_chunks(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SmallRangeRunsSerially) {
  // Under the serial cutoff the callback runs exactly once, inline.
  int calls = 0;
  parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, WorkerOverrideRespected) {
  set_parallel_worker_count(3);
  EXPECT_EQ(parallel_worker_count(), 3u);
  set_parallel_worker_count(0);
  EXPECT_GE(parallel_worker_count(), 1u);
}

TEST(Parallel, ResultIndependentOfWorkerCount) {
  constexpr std::size_t kN = 50000;
  auto run = [&](std::size_t workers) {
    set_parallel_worker_count(workers);
    std::vector<std::uint64_t> out(kN);
    parallel_for(0, kN, [&](std::size_t i) { out[i] = i * 3 + 1; });
    set_parallel_worker_count(0);
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(Parallel, LargeRangeRunsOnSeveralThreads) {
  constexpr std::size_t kN = 1 << 20;
  set_parallel_worker_count(4);
  std::vector<std::thread::id> ran_on(kN);
  parallel_for(0, kN, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  set_parallel_worker_count(0);
  const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_GT(threads.size(), 1u);
}

TEST(Parallel, BlocksRunOnSeveralThreads) {
  // Four blocks are far below any item cutoff, yet each is taken to be
  // heavy.  Every block waits (bounded) for a second block to start, so a
  // serial implementation records a single thread id and fails.
  set_parallel_worker_count(4);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> started{0};
  std::vector<int> hits(4, 0);
  parallel_for_blocks(4, [&](std::size_t b) {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    ++hits[b];
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  set_parallel_worker_count(0);
  EXPECT_EQ(hits, std::vector<int>(4, 1));
  EXPECT_GT(threads.size(), 1u);
}

TEST(Parallel, BlocksEdgeCases) {
  bool called = false;
  parallel_for_blocks(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  // A throwing block surfaces on the caller after every thread joined.
  set_parallel_worker_count(3);
  EXPECT_THROW(parallel_for_blocks(16,
                                   [](std::size_t b) {
                                     if (b == 5) throw std::runtime_error("b");
                                   }),
               std::runtime_error);
  set_parallel_worker_count(1);
  std::vector<std::size_t> order;
  parallel_for_blocks(3, [&](std::size_t b) { order.push_back(b); });
  set_parallel_worker_count(0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dsbfs::util
