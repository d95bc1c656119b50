#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace zonestream::common {
namespace {

TEST(ThreadPoolTest, SingleThreadPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ReportsRequestedThreadCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr int64_t kCount = 1000;
    std::vector<std::atomic<int>> visits(kCount);
    pool.ParallelFor(kCount, [&visits](int64_t i) { ++visits[i]; });
    for (int64_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.ParallelFor(3, [&visits](int64_t i) { ++visits[i]; });
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroOrNegativeCountIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, BodyWritesPartitionWithoutRaces) {
  ThreadPool pool(4);
  constexpr int64_t kCount = 4096;
  std::vector<int64_t> out(kCount, -1);
  pool.ParallelFor(kCount, [&out](int64_t i) { out[i] = i * i; });
  for (int64_t i = 0; i < kCount; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.ParallelFor(100,
                                  [](int64_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error)
        << threads << " threads";
    // The pool survives a throwing loop and can run another one.
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(10, [&sum](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(64);
  pool.ParallelFor(8, [&pool, &visits](int64_t outer) {
    pool.ParallelFor(8, [&visits, outer](int64_t inner) {
      ++visits[outer * 8 + inner];
    });
  });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPoolTest, FreeFunctionUsesGlobalPoolWhenNull) {
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(100, [&visits](int64_t i) { ++visits[i]; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPoolTest, FreeFunctionUsesProvidedPool) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  ParallelFor(100, [&sum](int64_t i) { sum += i + 1; }, &pool);
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::Global(), &ThreadPool::Global());
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
}

TEST(ThreadPoolTest, ManySmallLoopsDrainCleanly) {
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(17, [&sum](int64_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 136);
  }
}

}  // namespace
}  // namespace zonestream::common
