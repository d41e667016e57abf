#include "util/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace modb::util {
namespace {

using Clock = std::chrono::steady_clock;

// A task long enough that helpers, not only the caller, claim indices.
void BusyMicrosecond() {
  const auto until = Clock::now() + std::chrono::microseconds(1);
  while (Clock::now() < until) {
  }
}

// Runs one n-index fan-out; returns how many indices did not run exactly
// once.
int FanOutMisses(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> visits(n);
  pool.ParallelFor(n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
    BusyMicrosecond();
  });
  return static_cast<int>(std::count_if(
      visits.begin(), visits.end(),
      [](const std::atomic<int>& v) { return v.load() != 1; }));
}

double ProcessCpuMs() {
  rusage usage{};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(visits.size(),
                   [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "n=0 must not invoke"; });
  int calls = 0;
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: inline execution is sequential
  });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

TEST(ThreadPoolTest, ParallelForSumsCorrectlyUnderContention) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  const std::size_t n = 10000;
  pool.ParallelFor(n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, StressConcurrentCallersRunEveryIndexOnce) {
  // The pool holds one job at a time; the other callers run inline. Every
  // call must still run each of its indices exactly once.
  ThreadPool pool(3);
  std::atomic<int> misses{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 300; ++call) {
        const std::size_t n = std::size_t{2} + (call + c) % 15;
        misses.fetch_add(FanOutMisses(pool, n));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(ThreadPoolTest, StressNestedFanOutsRunEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> visits(kOuter * kInner);
    pool.ParallelFor(kOuter, [&](std::size_t i) {
      pool.ParallelFor(kInner, [&](std::size_t j) {
        visits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
        BusyMicrosecond();
      });
    });
    for (std::size_t k = 0; k < visits.size(); ++k) {
      ASSERT_EQ(visits[k].load(), 1) << "round " << round << " cell " << k;
    }
  }
}

TEST(ThreadPoolTest, StressFanOutsAcrossTheParkEdgeRunEveryIndexOnce) {
  // Pauses below, near and well above the workers' ~50 us stay-awake
  // window, so calls reach workers that spin, that are parking, and that
  // have parked.
  const std::chrono::microseconds pauses[] = {
      std::chrono::microseconds(0), std::chrono::microseconds(20),
      std::chrono::microseconds(60), std::chrono::microseconds(200),
      std::chrono::microseconds(1000)};
  ThreadPool pool(3);
  std::atomic<int> misses{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 100; ++call) {
        misses.fetch_add(FanOutMisses(pool, 8));
        std::this_thread::sleep_for(pauses[(call + c) % 5]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(ThreadPoolTest, IdlePoolUsesNoCpuAfterABurst) {
  ThreadPool pool(3);
  for (int call = 0; call < 2000; ++call) {
    ASSERT_EQ(FanOutMisses(pool, 8), 0);
  }
  // The stay-awake window is bounded: the workers park well within the
  // 200 ms window, so the whole process stays nearly idle.
  const double before = ProcessCpuMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpuMs() - before, 20.0);
}

TEST(ThreadPoolTest, PoolDestroyedRightAfterAFanOutJoinsPromptly) {
  for (int round = 0; round < 10; ++round) {
    auto pool = std::make_unique<ThreadPool>(3);
    ASSERT_EQ(FanOutMisses(*pool, 8), 0);  // workers are awake now
    const auto start = Clock::now();
    pool.reset();
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(1))
        << "round " << round;
  }
}

}  // namespace
}  // namespace modb::util
