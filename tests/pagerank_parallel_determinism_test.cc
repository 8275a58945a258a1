// TSan-targeted test: the multi-threaded solver must produce bit-identical
// output to the single-threaded path — scores, residual histories, AND
// iteration counts. Each Jacobi output entry depends only on the previous
// iterate, so sharding rows across threads must not change a single bit;
// the reductions (residuals, dangling sums) go
// through the deterministic chunked scheme of pagerank/kernel.h whose
// decomposition depends only on the element count, never the thread count.
// Any discrepancy means a data race or a floating-point reassociation snuck
// into the parallel path. The CI thread-sanitizer job runs this suite
// together with the thread-pool stress tests.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::SolverOptions;

/// Pseudo-random synthetic graph with dangling nodes (ids near n have no
/// outlinks with high probability), so both dangling policies get coverage.
WebGraph MakeSyntheticGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n * 3 / 4));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

/// Exact bitwise equality, not EXPECT_DOUBLE_EQ's 4-ulp band.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t abits;
    uint64_t bbits;
    std::memcpy(&abits, &a[i], sizeof(abits));
    std::memcpy(&bbits, &b[i], sizeof(bbits));
    ASSERT_EQ(abits, bbits) << "scores diverge at node " << i << ": " << a[i]
                            << " vs " << b[i];
  }
}

class ParallelJacobiDeterminismTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelJacobiDeterminismTest, BitIdenticalToSerialFixedIterations) {
  WebGraph g = MakeSyntheticGraph(800, 4000, /*seed=*/77);
  // tolerance = 0 pins the iteration count: both runs execute exactly
  // max_iterations sweeps, so the comparison cannot be masked by an early
  // convergence exit.
  SolverOptions serial;
  serial.tolerance = 0.0;
  serial.max_iterations = 60;
  SolverOptions parallel = serial;
  parallel.num_threads = GetParam();

  for (auto policy : {pagerank::DanglingPolicy::kLeak,
                      pagerank::DanglingPolicy::kRedistributeToJump}) {
    serial.dangling = parallel.dangling = policy;
    auto a = pagerank::ComputeUniformPageRank(g, serial);
    auto b = pagerank::ComputeUniformPageRank(g, parallel);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().iterations, b.value().iterations);
    ExpectBitIdentical(a.value().scores, b.value().scores);
  }
}

TEST_P(ParallelJacobiDeterminismTest, BitIdenticalToSerialConverged) {
  WebGraph g = MakeSyntheticGraph(500, 2500, /*seed=*/33);
  SolverOptions serial;
  serial.tolerance = 1e-13;
  serial.max_iterations = 2000;
  SolverOptions parallel = serial;
  parallel.num_threads = GetParam();

  auto a = pagerank::ComputeUniformPageRank(g, serial);
  auto b = pagerank::ComputeUniformPageRank(g, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a.value().converged);
  ASSERT_TRUE(b.value().converged);
  ASSERT_EQ(a.value().iterations, b.value().iterations);
  ExpectBitIdentical(a.value().scores, b.value().scores);
}

TEST_P(ParallelJacobiDeterminismTest, CoreJumpVectorBitIdentical) {
  WebGraph g = MakeSyntheticGraph(600, 3000, /*seed=*/55);
  std::vector<NodeId> core = {1, 5, 17, 100, 311};
  pagerank::JumpVector w =
      pagerank::JumpVector::ScaledCore(g.num_nodes(), core, /*gamma=*/0.85);

  SolverOptions serial;
  serial.tolerance = 0.0;
  serial.max_iterations = 40;
  SolverOptions parallel = serial;
  parallel.num_threads = GetParam();

  auto a = pagerank::ComputePageRank(g, w, serial);
  auto b = pagerank::ComputePageRank(g, w, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitIdentical(a.value().scores, b.value().scores);
}

TEST_P(ParallelJacobiDeterminismTest, ResidualHistoryBitIdentical) {
  // Residuals feed the convergence test, so bit-identical scores with
  // drifting residuals would still let iteration counts diverge across
  // thread counts. The deterministic chunked reduction pins both.
  WebGraph g = MakeSyntheticGraph(700, 3500, /*seed=*/91);
  SolverOptions serial;
  serial.tolerance = 1e-12;
  serial.max_iterations = 2000;
  serial.track_residuals = true;
  SolverOptions parallel = serial;
  parallel.num_threads = GetParam();

  auto a = pagerank::ComputeUniformPageRank(g, serial);
  auto b = pagerank::ComputeUniformPageRank(g, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().iterations, b.value().iterations);
  ExpectBitIdentical(a.value().residual_history,
                     b.value().residual_history);
  ExpectBitIdentical(a.value().scores, b.value().scores);
}

TEST_P(ParallelJacobiDeterminismTest, MultiVectorSolveBitIdentical) {
  WebGraph g = MakeSyntheticGraph(600, 3000, /*seed=*/71);
  std::vector<pagerank::JumpVector> jumps;
  jumps.push_back(pagerank::JumpVector::Uniform(g.num_nodes()));
  jumps.push_back(pagerank::JumpVector::ScaledCore(
      g.num_nodes(), {3, 11, 42, 250}, /*gamma=*/0.85));

  SolverOptions serial;
  serial.tolerance = 1e-12;
  serial.max_iterations = 2000;
  SolverOptions parallel = serial;
  parallel.num_threads = GetParam();

  auto a = pagerank::ComputePageRankMulti(g, jumps, serial);
  auto b = pagerank::ComputePageRankMulti(g, jumps, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t j = 0; j < jumps.size(); ++j) {
    ASSERT_EQ(a.value()[j].iterations, b.value()[j].iterations);
    ExpectBitIdentical(a.value()[j].scores, b.value()[j].scores);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelJacobiDeterminismTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace spammass
