// Unit tests of the linear PageRank solvers on small graphs with known
// solutions.

#include "pagerank/solver.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "pagerank/jump_vector.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::ComputePageRank;
using pagerank::ComputeUniformPageRank;
using pagerank::DanglingPolicy;
using pagerank::JumpVector;
using pagerank::L1Norm;
using pagerank::ScaledScores;
using pagerank::SolverOptions;

SolverOptions Precise() {
  SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  return opt;
}

WebGraph Chain3() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  return b.Build();
}

TEST(SolverTest, EmptyGraphRejected) {
  WebGraph g;
  auto r = ComputeUniformPageRank(g, Precise());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SolverTest, BadDampingRejected) {
  WebGraph g = Chain3();
  SolverOptions opt = Precise();
  opt.damping = 1.0;
  EXPECT_FALSE(ComputeUniformPageRank(g, opt).ok());
  opt.damping = 0.0;
  EXPECT_FALSE(ComputeUniformPageRank(g, opt).ok());
  opt.damping = -0.3;
  EXPECT_FALSE(ComputeUniformPageRank(g, opt).ok());
}

TEST(SolverTest, DimensionMismatchRejected) {
  WebGraph g = Chain3();
  auto r = ComputePageRank(g, JumpVector::Uniform(5), Precise());
  EXPECT_FALSE(r.ok());
}

TEST(SolverTest, ZeroJumpVectorRejected) {
  WebGraph g = Chain3();
  auto r = ComputePageRank(g, JumpVector(3), Precise());
  EXPECT_FALSE(r.ok());
}

TEST(SolverTest, OverUnitNormRejected) {
  WebGraph g = Chain3();
  auto r = ComputePageRank(
      g, JumpVector::FromDense({0.9, 0.9, 0.9}), Precise());
  EXPECT_FALSE(r.ok());
}

TEST(SolverTest, SingleNodeNoEdges) {
  GraphBuilder b(1);
  WebGraph g = b.Build();
  auto r = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(r.ok());
  // No inlinks: p = (1−c)·v; scaled score is exactly 1.
  EXPECT_NEAR(ScaledScores(r.value().scores, 0.85)[0], 1.0, 1e-12);
}

TEST(SolverTest, ChainScores) {
  // 0 -> 1 -> 2 with leak policy: p̂0 = 1, p̂1 = 1+c, p̂2 = 1+c(1+c).
  WebGraph g = Chain3();
  auto r = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(r.ok());
  auto p = ScaledScores(r.value().scores, 0.85);
  EXPECT_NEAR(p[0], 1.0, 1e-10);
  EXPECT_NEAR(p[1], 1.85, 1e-10);
  EXPECT_NEAR(p[2], 1.0 + 0.85 * 1.85, 1e-10);
}

TEST(SolverTest, ConvergenceReported) {
  WebGraph g = Chain3();
  auto r = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().converged);
  EXPECT_LT(r.value().residual, 1e-14);
  EXPECT_GT(r.value().iterations, 0);
}

TEST(SolverTest, IterationCapStopsUnconverged) {
  WebGraph g = Chain3();
  SolverOptions opt = Precise();
  opt.max_iterations = 1;
  opt.tolerance = 1e-300;
  auto r = ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().converged);
  EXPECT_EQ(r.value().iterations, 1);
}

TEST(SolverTest, ResidualHistoryTracked) {
  WebGraph g = Chain3();
  SolverOptions opt = Precise();
  opt.track_residuals = true;
  auto r = ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int>(r.value().residual_history.size()),
            r.value().iterations);
  // Residuals of a converging solve shrink overall.
  EXPECT_LT(r.value().residual_history.back(),
            r.value().residual_history.front());
}

TEST(SolverTest, LeakPolicyNormBelowJumpNorm) {
  // With dangling leak, ‖p‖ ≤ ‖v‖ (Section 3.5 uses this inequality).
  WebGraph g = Chain3();  // node 2 dangles
  auto r = ComputeUniformPageRank(g, Precise());
  ASSERT_TRUE(r.ok());
  EXPECT_LT(L1Norm(r.value().scores), 1.0);
}

TEST(SolverTest, RedistributePolicyHasUnitNorm) {
  WebGraph g = Chain3();
  SolverOptions opt = Precise();
  opt.dangling = DanglingPolicy::kRedistributeToJump;
  auto r = ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(L1Norm(r.value().scores), 1.0, 1e-10);
}

TEST(SolverTest, ScaledScoresInverseOfScaling) {
  std::vector<double> p = {0.1, 0.2};
  auto scaled = ScaledScores(p, 0.85);
  EXPECT_NEAR(scaled[0], 0.1 * 2 / 0.15, 1e-12);
  EXPECT_NEAR(scaled[1], 0.2 * 2 / 0.15, 1e-12);
}

}  // namespace
}  // namespace spammass
