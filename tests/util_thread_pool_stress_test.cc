// Multi-threaded stress tests for util::ThreadPool: many caller threads
// sharing one pool, back-to-back calls, and pools destroyed right after
// their last call. Primarily a TSan target (the CI thread-sanitizer job
// runs this suite), but the invariant checked — ParallelForChunked covers
// its range exactly once, whatever the other callers do — holds in any
// build.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace spammass {
namespace {

using util::ThreadPool;

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

TEST(ThreadPoolStressTest, WaitAfterQuiescencePicksUpNewBatches) {
  // Each call returns only after all of its chunks ran, and the next call
  // wakes the same workers again.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.ParallelForChunked(20, 1, [&counter](uint64_t, uint64_t, uint64_t) {
      counter.fetch_add(1);
    });
    ASSERT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolStressTest, ManyShortLivedPools) {
  // Construction/destruction races: workers must join cleanly even when
  // the pool dies right after its last call.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(4);
      pool.ParallelForChunked(32, 1, [&counter](uint64_t, uint64_t, uint64_t) {
        counter.fetch_add(1);
      });
    }
    EXPECT_EQ(counter.load(), 32);
  }
}

}  // namespace
}  // namespace spammass
