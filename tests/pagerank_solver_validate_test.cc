// Tests of the PageRank invariant validators (pagerank/solver_validate.h):
// genuine solver outputs pass; corrupted jump vectors, score vectors, and
// broken p = p_core + residual decompositions are rejected.

#include "pagerank/solver_validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/graph_builder.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "util/status.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::PageRankResult;
using pagerank::SolverOptions;
using pagerank::ValidateJumpValues;
using pagerank::ValidateJumpVector;
using pagerank::ValidateMassDecomposition;
using pagerank::ValidateSolverResult;
using util::StatusCode;

WebGraph MakeChain() {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  return b.Build();
}

TEST(ValidateJumpTest, UniformVectorIsStochastic) {
  JumpVector v = JumpVector::Uniform(10);
  EXPECT_TRUE(ValidateJumpVector(v).ok());
  EXPECT_TRUE(ValidateJumpVector(v, /*require_stochastic=*/true).ok());
}

TEST(ValidateJumpTest, CoreVectorIsValidButNotStochastic) {
  JumpVector v = JumpVector::Core(10, {1, 4});  // norm = 2/10
  EXPECT_TRUE(ValidateJumpVector(v).ok());
  auto st = ValidateJumpVector(v, /*require_stochastic=*/true);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("not stochastic"), std::string::npos);
}

TEST(ValidateJumpTest, RejectsEmptyVector) {
  EXPECT_FALSE(ValidateJumpValues({}).ok());
}

TEST(ValidateJumpTest, RejectsNegativeEntry) {
  auto st = ValidateJumpValues({0.5, -0.1, 0.6});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("negative"), std::string::npos);
}

TEST(ValidateJumpTest, RejectsNonFiniteEntry) {
  auto st =
      ValidateJumpValues({0.5, std::numeric_limits<double>::quiet_NaN()});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("finite"), std::string::npos);
}

TEST(ValidateJumpTest, RejectsZeroNorm) {
  auto st = ValidateJumpValues({0.0, 0.0, 0.0});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("zero"), std::string::npos);
}

TEST(ValidateJumpTest, RejectsNormAboveOne) {
  auto st = ValidateJumpValues({0.8, 0.8});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exceeds 1"), std::string::npos);
}

class ValidateSolverResultTest : public ::testing::Test {
 protected:
  ValidateSolverResultTest() : graph_(MakeChain()) {}

  /// Solves on the chain graph and returns a result known to be genuine.
  PageRankResult Solve(const SolverOptions& options) {
    auto r = pagerank::ComputeUniformPageRank(graph_, options);
    EXPECT_TRUE(r.ok());
    return r.value();
  }

  WebGraph graph_;
};

TEST_F(ValidateSolverResultTest, GenuineSolutionsPassForEveryMethod) {
  // Jacobi is the one method; its solves pass under both dangling policies.
  for (auto dangling : {pagerank::DanglingPolicy::kLeak,
                        pagerank::DanglingPolicy::kRedistributeToJump}) {
    SolverOptions options;
    options.dangling = dangling;
    PageRankResult result = Solve(options);
    JumpVector v = JumpVector::Uniform(graph_.num_nodes());
    EXPECT_TRUE(ValidateSolverResult(graph_, v, options, result).ok());
  }
}

TEST_F(ValidateSolverResultTest, RejectsWrongDimension) {
  SolverOptions options;
  PageRankResult result = Solve(options);
  result.scores.pop_back();
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  auto st = ValidateSolverResult(graph_, v, options, result);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("scores"), std::string::npos);
}

TEST_F(ValidateSolverResultTest, RejectsNegativeScore) {
  SolverOptions options;
  PageRankResult result = Solve(options);
  result.scores[1] = -0.5;
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  auto st = ValidateSolverResult(graph_, v, options, result);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("negative"), std::string::npos);
}

TEST_F(ValidateSolverResultTest, RejectsNonFiniteScore) {
  SolverOptions options;
  PageRankResult result = Solve(options);
  result.scores[0] = std::numeric_limits<double>::infinity();
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  EXPECT_FALSE(ValidateSolverResult(graph_, v, options, result).ok());
}

TEST_F(ValidateSolverResultTest, RejectsCreatedMass) {
  SolverOptions options;
  PageRankResult result = Solve(options);
  // Inflate the solution: total mass beyond ||v|| means the solver
  // "created" PageRank, which Eq. 3 forbids.
  for (double& p : result.scores) p += 1.0;
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  auto st = ValidateSolverResult(graph_, v, options, result);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("mass"), std::string::npos);
}

TEST_F(ValidateSolverResultTest, RejectsVanishedMass) {
  SolverOptions options;
  PageRankResult result = Solve(options);
  // Deflate below the (1-c)||v|| teleportation floor.
  for (double& p : result.scores) p *= 1e-3;
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  auto st = ValidateSolverResult(graph_, v, options, result);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("floor"), std::string::npos);
}

TEST(ValidateMassDecompositionTest, ConsistentDecompositionPasses) {
  std::vector<double> p = {0.4, 0.3, 0.3};
  std::vector<double> core = {0.35, 0.1, 0.25};
  std::vector<double> residual = {0.05, 0.2, 0.05};
  EXPECT_TRUE(ValidateMassDecomposition(p, core, residual).ok());
}

TEST(ValidateMassDecompositionTest, NegativeResidualIsAllowed) {
  // Section 3.5: M̃ can legitimately go negative; only p = p' + M̃ matters.
  std::vector<double> p = {0.4};
  std::vector<double> core = {0.5};
  std::vector<double> residual = {-0.1};
  EXPECT_TRUE(ValidateMassDecomposition(p, core, residual).ok());
}

TEST(ValidateMassDecompositionTest, RejectsSizeMismatch) {
  std::vector<double> p = {0.4, 0.6};
  std::vector<double> core = {0.4};
  std::vector<double> residual = {0.0, 0.2};
  auto st = ValidateMassDecomposition(p, core, residual);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sizes disagree"), std::string::npos);
}

TEST(ValidateMassDecompositionTest, RejectsBrokenSum) {
  std::vector<double> p = {0.4, 0.6};
  std::vector<double> core = {0.3, 0.3};
  std::vector<double> residual = {0.1, 0.2};  // 0.3 + 0.2 != 0.6
  auto st = ValidateMassDecomposition(p, core, residual);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("node 1"), std::string::npos);
}

TEST(ValidateMassDecompositionTest, EndToEndEstimatesSatisfyDecomposition) {
  WebGraph g = MakeChain();
  // The library wires this DCHECK internally; re-assert it through the
  // public API so release builds cover it too.
  auto solved = pagerank::ComputeUniformPageRank(g, SolverOptions());
  ASSERT_TRUE(solved.ok());
  const std::vector<double>& p = solved.value().scores;
  std::vector<double> core(p.size(), 0.0);
  std::vector<double> residual = p;
  EXPECT_TRUE(ValidateMassDecomposition(p, core, residual).ok());
}

}  // namespace
}  // namespace spammass
