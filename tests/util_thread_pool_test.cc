// Tests of the thread pool and of parallel Jacobi agreement.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "graph/graph_builder.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using util::ThreadPool;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

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
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
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
