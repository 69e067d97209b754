#include "base/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace repro::base {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::atomic<int> ran{0};
  auto future = pool.submit([&ran] {
    ++ran;
    return 7;
  });
  // With no workers the task ran inside submit, before get().
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(future.get(), 7);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ManyWorkersRunEveryTask) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.worker_count(), 8u);
  std::atomic<int> sum{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&sum, i] {
      sum += i;
      return i * 2;
    }));
  }
  // Futures map to their own task's result regardless of which worker
  // ran it.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 2);
  }
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 1; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW((void)bad.get(), std::runtime_error);
}

TEST(ThreadPool, ExceptionPropagatesFromInlinePool) {
  ThreadPool pool(0);
  auto bad = pool.submit([]() -> int { throw std::logic_error("inline"); });
  EXPECT_THROW((void)bad.get(), std::logic_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&ran] { ++ran; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, HardwareWorkersIsPositive) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1u);
}

TEST(ThreadPool, ResolveWorkersPrefersExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_workers(3), 3u);
}

TEST(ThreadPool, ParseThreadCountIsStrict) {
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("16"), 16u);
  EXPECT_EQ(ThreadPool::parse_thread_count("1024"), 1024u);
  // Everything else is invalid: zero, signs, whitespace, trailing
  // characters, empty, overflow past kMaxWorkers.
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("1025"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("+4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("-4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(" 4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4 "), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4x"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0x4"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("99999999999999999999"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(nullptr), 0u);
}

TEST(ThreadPool, ResolveWorkersRejectsInvalidEnvironment) {
  // A typo'd FX8_THREADS must fall back to the hardware count, not
  // strtoul-prefix-parse its way into a wrong worker count.
  ASSERT_EQ(setenv("FX8_THREADS", "8cores", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_workers(0), ThreadPool::hardware_workers());
  ASSERT_EQ(setenv("FX8_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_workers(0), ThreadPool::hardware_workers());
  ASSERT_EQ(unsetenv("FX8_THREADS"), 0);
}

TEST(ThreadPool, ResolveWorkersReadsEnvironment) {
  ASSERT_EQ(setenv("FX8_THREADS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_workers(0), 5u);
  // Explicit request still wins over the environment.
  EXPECT_EQ(ThreadPool::resolve_workers(2), 2u);
  ASSERT_EQ(setenv("FX8_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_workers(0), ThreadPool::hardware_workers());
  ASSERT_EQ(unsetenv("FX8_THREADS"), 0);
  EXPECT_EQ(ThreadPool::resolve_workers(0), ThreadPool::hardware_workers());
}

TEST(ThreadPool, NestedResolveIsInline) {
  // Pools never nest: on a worker thread every request resolves to one
  // worker, explicit or not, so study and bootstrap code called from a
  // task runs inline.
  ThreadPool pool(2);
  auto nested = pool.submit([] {
    return std::pair{ThreadPool::resolve_workers(0),
                     ThreadPool::resolve_workers(4)};
  });
  const auto [automatic, explicit_request] = nested.get();
  EXPECT_EQ(automatic, 1u);
  EXPECT_EQ(explicit_request, 1u);
  // The submitting thread is unaffected, as is an inline (0-worker)
  // pool's task, which runs on it.
  EXPECT_EQ(ThreadPool::resolve_workers(4), 4u);
  ThreadPool inline_pool(0);
  EXPECT_EQ(inline_pool.submit([] { return ThreadPool::resolve_workers(4); })
                .get(),
            4u);
}

}  // namespace
}  // namespace repro::base
