// Property-based tests of PageRank invariants on randomized graphs:
//   * linearity in the jump vector (Section 2.2),
//   * Theorem 1: p_y = Σ_x q_y^x over any partition of V,
//   * agreement of the iterative solvers with the truncated Neumann series
//     within the analytic truncation bound,
//   * monotonicity and positivity properties.

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "pagerank/contribution.h"
#include "pagerank/jump_vector.h"
#include "pagerank/neumann.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::ComputePageRank;
using pagerank::ComputeSetContribution;
using pagerank::ComputeUniformPageRank;
using pagerank::JumpVector;
using pagerank::Method;
using pagerank::SolverOptions;

SolverOptions Precise(Method method = Method::kJacobi) {
  SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  opt.method = method;
  return opt;
}

/// Random graph with n nodes and roughly mean_degree outlinks per node.
WebGraph RandomGraph(uint32_t n, double mean_degree, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  uint64_t edges = static_cast<uint64_t>(n * mean_degree);
  for (uint64_t e = 0; e < edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

class PageRankPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageRankPropertyTest, LinearityInJumpVector) {
  const uint64_t seed = GetParam();
  WebGraph g = RandomGraph(40, 2.5, seed);
  util::Rng rng(seed + 1);
  // Two random non-negative jump vectors with combined norm <= 1.
  std::vector<double> v1(g.num_nodes()), v2(g.num_nodes());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    v1[i] = rng.Uniform01() / g.num_nodes() * 0.5;
    v2[i] = rng.Uniform01() / g.num_nodes() * 0.5;
  }
  auto p1 = ComputePageRank(g, JumpVector::FromDense(v1), Precise());
  auto p2 = ComputePageRank(g, JumpVector::FromDense(v2), Precise());
  auto p12 = ComputePageRank(
      g, JumpVector::FromDense(v1).Plus(JumpVector::FromDense(v2)),
      Precise());
  ASSERT_TRUE(p1.ok() && p2.ok() && p12.ok());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(p1.value().scores[i] + p2.value().scores[i],
                p12.value().scores[i], 1e-10);
  }
}

TEST_P(PageRankPropertyTest, Theorem1ContributionsSumToPageRank) {
  const uint64_t seed = GetParam();
  WebGraph g = RandomGraph(30, 2.0, seed);
  util::Rng rng(seed + 2);
  // Random 3-way partition of V.
  std::vector<std::vector<NodeId>> parts(3);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    parts[rng.UniformIndex(3)].push_back(x);
  }
  auto p = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(p.ok());
  std::vector<double> sum(g.num_nodes(), 0.0);
  for (const auto& part : parts) {
    auto q = ComputeSetContribution(g, part, Precise());
    ASSERT_TRUE(q.ok());
    for (uint32_t i = 0; i < g.num_nodes(); ++i) {
      sum[i] += q.value().scores[i];
    }
  }
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(sum[i], p.value().scores[i], 1e-10);
  }
}

TEST_P(PageRankPropertyTest, NeumannSeriesAgreesWithinBound) {
  const uint64_t seed = GetParam();
  WebGraph g = RandomGraph(35, 2.5, seed);
  JumpVector v = JumpVector::Uniform(g.num_nodes());
  auto p = ComputePageRank(g, v, Precise());
  ASSERT_TRUE(p.ok());
  for (int terms : {5, 20, 80}) {
    std::vector<double> series =
        pagerank::NeumannSeries(g, v, 0.85, terms);
    double bound = pagerank::NeumannTruncationBound(v, 0.85, terms);
    double err = 0;
    for (uint32_t i = 0; i < g.num_nodes(); ++i) {
      err += std::abs(series[i] - p.value().scores[i]);
    }
    EXPECT_LE(err, bound + 1e-10) << "terms=" << terms;
  }
}

TEST_P(PageRankPropertyTest, SolversAgreeOnRandomGraphs) {
  const uint64_t seed = GetParam();
  WebGraph g = RandomGraph(60, 3.0, seed);
  // Jacobi with the dangling patch, normalized, is the stationary
  // distribution power iteration finds (Section 2.2).
  SolverOptions linear = Precise(Method::kJacobi);
  linear.dangling = pagerank::DanglingPolicy::kRedistributeToJump;
  auto jacobi = ComputeUniformPageRank(g, linear);
  auto power = ComputeUniformPageRank(g, Precise(Method::kPowerIteration));
  ASSERT_TRUE(jacobi.ok() && power.ok());
  const double norm = pagerank::L1Norm(jacobi.value().scores);
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(jacobi.value().scores[i] / norm, power.value().scores[i],
                1e-9);
  }
}

TEST_P(PageRankPropertyTest, ScoresArePositiveAndBounded) {
  const uint64_t seed = GetParam();
  WebGraph g = RandomGraph(50, 2.0, seed);
  auto p = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(p.ok());
  double norm = 0;
  for (double x : p.value().scores) {
    EXPECT_GT(x, 0.0);  // every node receives at least (1−c)·v_x
    norm += x;
  }
  EXPECT_LE(norm, 1.0 + 1e-9);  // ‖p‖ ≤ ‖v‖ under the leak policy
}

TEST_P(PageRankPropertyTest, AddingInlinkNeverDecreasesPageRank) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed + 3);
  WebGraph g = RandomGraph(25, 2.0, seed);
  auto before = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(before.ok());
  // Add one link from a fresh node (so no existing flows are rerouted).
  GraphBuilder b(g.num_nodes() + 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) b.AddEdge(u, v);
  }
  NodeId target = static_cast<NodeId>(rng.UniformIndex(g.num_nodes()));
  b.AddEdge(g.num_nodes(), target);
  WebGraph g2 = b.Build();
  auto after = ComputeUniformPageRank(g2, Precise());
  ASSERT_TRUE(after.ok());
  // Compare unscaled-but-per-node jump-adjusted scores: use the same v_x by
  // comparing n·p (the jump per node changed from 1/n to 1/(n+1)).
  double pn_before = before.value().scores[target] * g.num_nodes();
  double pn_after = after.value().scores[target] * g2.num_nodes();
  EXPECT_GE(pn_after, pn_before - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRankPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

}  // namespace
}  // namespace spammass
