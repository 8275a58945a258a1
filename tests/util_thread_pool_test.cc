// Tests of the thread pool and of parallel Jacobi agreement.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using util::ThreadPool;

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForChunked(1000, 7,
                          [&hits](uint64_t, uint64_t begin, uint64_t end) {
                            for (uint64_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForChunked(
      0, 1, [&called](uint64_t, uint64_t, uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  pool.ParallelForChunked(3, 1, [&sum](uint64_t, uint64_t begin,
                                       uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 6u);  // 1 + 2 + 3
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.ParallelForChunked(10, 1, [&counter](uint64_t, uint64_t, uint64_t) {
      counter.fetch_add(1);
    });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsChunksOnCallerInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  pool.ParallelForChunked(
      10, 3, [&](uint64_t c, uint64_t begin, uint64_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 3 * c);
        EXPECT_EQ(end, std::min<uint64_t>(begin + 3, 10));
        order.push_back(c);
      });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, EveryChunkIndexRunsOnceAroundParticipantCount) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  // Fewer chunks than participants, as many, and more.
  for (uint64_t num_chunks : {1u, 2u, 3u, 4u, 5u, 64u}) {
    std::vector<std::atomic<int>> runs(num_chunks);
    pool.ParallelForChunked(
        num_chunks * 5, 5, [&](uint64_t c, uint64_t begin, uint64_t end) {
          EXPECT_EQ(begin, 5 * c);
          EXPECT_EQ(end, begin + 5);
          runs[c].fetch_add(1);
        });
    for (uint64_t c = 0; c < num_chunks; ++c) {
      EXPECT_EQ(runs[c].load(), 1) << num_chunks << " chunks, chunk " << c;
    }
  }
}

TEST(ThreadPoolDeathTest, NestedCallFailsInsteadOfDeadlocking) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.ParallelForChunked(4, 1, [&pool](uint64_t, uint64_t, uint64_t) {
          pool.ParallelForChunked(2, 1, [](uint64_t, uint64_t, uint64_t) {});
        });
      },
      "inside a chunk body");
}

TEST(ParallelJacobiTest, MatchesSerialSolution) {
  util::Rng rng(33);
  graph::GraphBuilder b(500);
  for (int e = 0; e < 2500; ++e) {
    auto u = static_cast<graph::NodeId>(rng.UniformIndex(500));
    auto v = static_cast<graph::NodeId>(rng.UniformIndex(500));
    if (u != v) b.AddEdge(u, v);
  }
  graph::WebGraph g = b.Build();
  pagerank::SolverOptions serial;
  serial.tolerance = 1e-13;
  serial.max_iterations = 2000;
  pagerank::SolverOptions parallel = serial;
  parallel.num_threads = 4;
  for (auto policy : {pagerank::DanglingPolicy::kLeak,
                      pagerank::DanglingPolicy::kRedistributeToJump}) {
    serial.dangling = parallel.dangling = policy;
    auto a = pagerank::ComputeUniformPageRank(g, serial);
    auto c = pagerank::ComputeUniformPageRank(g, parallel);
    ASSERT_TRUE(a.ok() && c.ok());
    EXPECT_EQ(a.value().iterations, c.value().iterations);
    for (graph::NodeId x = 0; x < g.num_nodes(); ++x) {
      EXPECT_DOUBLE_EQ(a.value().scores[x], c.value().scores[x]);
    }
  }
}

}  // namespace
}  // namespace spammass
