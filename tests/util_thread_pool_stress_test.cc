// Multi-threaded stress tests for util::ThreadPool: many caller threads
// hammering Submit/ParallelForChunked/Wait concurrently. Primarily a TSan
// target (the CI thread-sanitizer job runs exactly this suite), but the
// invariants checked — every task runs exactly once, ParallelForChunked
// covers its range exactly once even with concurrent interference — hold
// in any build.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace spammass {
namespace {

using util::ThreadPool;

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllTasksRun) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kTasksPerSubmitter = 500;
  std::atomic<int> counter{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksPerSubmitter);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForCallersCoverTheirRanges) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr uint64_t kRange = 2000;

  // Each caller thread owns a hit array; ParallelForChunked must cover
  // exactly its own range even while five other callers shard through the
  // same pool.
  std::vector<std::vector<std::atomic<uint32_t>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<uint32_t>>(kRange);

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&pool, &hits, caller] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelForChunked(
            kRange, 100,
            [&hits, caller](uint64_t, uint64_t begin, uint64_t end) {
              for (uint64_t i = begin; i < end; ++i) {
                hits[caller][i].fetch_add(1);
              }
            });
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (int caller = 0; caller < kCallers; ++caller) {
    for (uint64_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[caller][i].load(), 20u)
          << "caller " << caller << " index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, MixedSubmitParallelForWaitInterleavings) {
  ThreadPool pool(3);
  std::atomic<uint64_t> submit_done{0};
  std::atomic<uint64_t> parallel_done{0};
  std::atomic<bool> stop{false};

  // One thread spins Wait() the whole time: Wait must neither crash, nor
  // deadlock, nor return while claiming quiescence it can't observe.
  std::thread waiter([&pool, &stop] {
    while (!stop.load()) pool.Wait();
  });

  std::thread submitter([&pool, &submit_done] {
    for (int i = 0; i < 2000; ++i) {
      pool.Submit([&submit_done] { submit_done.fetch_add(1); });
      if (i % 128 == 0) pool.Wait();
    }
  });

  std::thread sharder([&pool, &parallel_done] {
    for (int round = 0; round < 200; ++round) {
      pool.ParallelForChunked(
          64, 8, [&parallel_done](uint64_t, uint64_t begin, uint64_t end) {
            parallel_done.fetch_add(end - begin);
          });
    }
  });

  submitter.join();
  sharder.join();
  pool.Wait();
  stop.store(true);
  waiter.join();

  EXPECT_EQ(submit_done.load(), 2000u);
  EXPECT_EQ(parallel_done.load(), 200u * 64u);
}

TEST(ThreadPoolStressTest, WaitAfterQuiescencePicksUpNewBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 50; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    ASSERT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolStressTest, ManyShortLivedPools) {
  // Construction/destruction races: workers must drain and join cleanly
  // even when the pool dies immediately after the last Submit.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 32; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
      // No Wait: the destructor must drain the queue itself.
    }
    EXPECT_EQ(counter.load(), 32);
  }
}

}  // namespace
}  // namespace spammass
