// Tests of the TrustRank baseline.

#include "core/trustrank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "synth/generator.h"
#include "synth/paper_graphs.h"
#include "synth/scenario.h"

namespace spammass {
namespace {

using core::ComputeTrustRank;
using core::SelectTrustRankSeeds;
using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::SolverOptions;

SolverOptions Precise() {
  SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  return opt;
}

TEST(TrustRankTest, TrustFlowsOnlyFromSeeds) {
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, {fig.g1}, Precise());
  ASSERT_TRUE(trust.ok());
  // g1 -> g0 -> x is the only trust path.
  EXPECT_GT(trust.value()[fig.g1], 0.0);
  EXPECT_GT(trust.value()[fig.g0], 0.0);
  EXPECT_GT(trust.value()[fig.x], 0.0);
  EXPECT_EQ(trust.value()[fig.s0], 0.0);
  EXPECT_EQ(trust.value()[fig.g2], 0.0);
}

TEST(TrustRankTest, SpamFarmGetsNoTrust) {
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, fig.good_core, Precise());
  ASSERT_TRUE(trust.ok());
  for (NodeId s : {fig.s0, fig.s1, fig.s5, fig.s6}) {
    EXPECT_EQ(trust.value()[s], 0.0);
  }
}

TEST(TrustRankTest, EmptySeedsRejected) {
  auto fig = synth::MakeFigure2Graph();
  EXPECT_FALSE(ComputeTrustRank(fig.graph, {}, Precise()).ok());
}

TEST(TrustRankTest, OutOfRangeSeedRejected) {
  auto fig = synth::MakeFigure2Graph();
  EXPECT_FALSE(ComputeTrustRank(fig.graph, {999}, Precise()).ok());
}

TEST(TrustRankTest, InversePageRankPrefersBroadReach) {
  // Star: node 0 links to everyone; on the transposed graph every node
  // links to 0, so 0 dominates inverse PageRank.
  GraphBuilder b(6);
  for (NodeId i = 1; i < 6; ++i) b.AddEdge(0, i);
  WebGraph g = b.Build();
  auto selection = SelectTrustRankSeeds(g, 2, nullptr, Precise());
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection.value().seeds.size(), 2u);
  EXPECT_EQ(selection.value().seeds[0], 0u);
}

TEST(TrustRankTest, SeedCountClampedToGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  auto selection = SelectTrustRankSeeds(g, 100, nullptr, Precise());
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection.value().seeds.size(), 3u);
}

TEST(TrustRankTest, SeedOracleKeepsGoodCandidatesInRankOrder) {
  // Star: node 0 outranks the leaves, which tie and break by lower id.
  GraphBuilder b(6);
  for (NodeId i = 1; i < 6; ++i) b.AddEdge(0, i);
  WebGraph g = b.Build();
  auto all = SelectTrustRankSeeds(g, 4, nullptr, Precise());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().seeds, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(all.value().inverse_pagerank.converged);
  EXPECT_EQ(all.value().inverse_pagerank.scores.size(), 6u);

  core::LabelStore oracle(6);
  oracle.Set(0, core::NodeLabel::kSpam);
  oracle.Set(2, core::NodeLabel::kUnknown);
  auto good = SelectTrustRankSeeds(g, 4, &oracle, Precise());
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().seeds, (std::vector<NodeId>{1, 3}));

  for (NodeId x = 0; x < 6; ++x) oracle.Set(x, core::NodeLabel::kSpam);
  auto none = SelectTrustRankSeeds(g, 4, &oracle, Precise());
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(TrustRankTest, SeedSolveMatchesASolveOverAReversedBuild) {
  // The seed solve walks a view of the graph's own in-CSR. It must read
  // the same bits as a solve over the reversed graph built from scratch.
  auto web = synth::GenerateWeb(synth::TinyScenario(5));
  ASSERT_TRUE(web.ok());
  const WebGraph& g = web.value().graph;
  std::vector<std::pair<NodeId, NodeId>> reversed;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : g.OutNeighbors(x)) reversed.emplace_back(y, x);
  }
  std::sort(reversed.begin(), reversed.end());
  const WebGraph want_graph =
      WebGraph::FromSortedEdges(g.num_nodes(), reversed);
  SolverOptions opt;
  auto want = pagerank::ComputeUniformPageRank(want_graph, opt);
  ASSERT_TRUE(want.ok());
  const std::vector<double>& scores = want.value().scores;

  constexpr uint32_t kCandidates = 25;
  auto got = SelectTrustRankSeeds(g, kCandidates, nullptr, opt);
  ASSERT_TRUE(got.ok());
  const pagerank::PageRankResult& inverse = got.value().inverse_pagerank;
  EXPECT_EQ(inverse.iterations, want.value().iterations);
  EXPECT_EQ(std::bit_cast<uint64_t>(inverse.residual),
            std::bit_cast<uint64_t>(want.value().residual));
  ASSERT_EQ(inverse.scores.size(), scores.size());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    ASSERT_EQ(std::bit_cast<uint64_t>(inverse.scores[x]),
              std::bit_cast<uint64_t>(scores[x]))
        << "node " << x;
  }
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return scores[a] > scores[b];
  });
  order.resize(kCandidates);
  EXPECT_EQ(got.value().seeds, order);
}

/// A graph whose inverse PageRank ranks hub b just above hub a. On the
/// transposed graph (the one inverse PageRank walks) `leaves_a` and
/// `leaves_b` leaves link to a and b, a and b link to each other, and z
/// links to b and to `sinks` sinks, so b's lead over a comes from z's
/// 1/(sinks + 1) share. The a-b cycle keeps the Jacobi solve asymptotic
/// (a DAG would converge exactly, with residual 0).
WebGraph TwoHubGraph(int leaves_a, int leaves_b, int sinks) {
  const NodeId a = 0, b = 1, z = 2;
  GraphBuilder builder(static_cast<NodeId>(3 + leaves_a + leaves_b + sinks));
  NodeId next = 3;
  // Each edge below is the forward edge u -> v of a transposed edge v -> u.
  for (int i = 0; i < leaves_a; ++i) builder.AddEdge(a, next++);
  for (int i = 0; i < leaves_b; ++i) builder.AddEdge(b, next++);
  builder.AddEdge(a, b);
  builder.AddEdge(b, a);
  builder.AddEdge(b, z);
  for (int i = 0; i < sinks; ++i) builder.AddEdge(next++, z);
  return builder.Build();
}

SolverOptions AtTolerance(double tolerance) {
  SolverOptions opt = Precise();
  opt.tolerance = tolerance;
  return opt;
}

TEST(TrustRankSeedMarginTest, ClearGapIsCertifiedByTheBound) {
  WebGraph g = TwoHubGraph(1, 3, 20000);
  auto selection = SelectTrustRankSeeds(g, 1, nullptr, AtTolerance(1e-8));
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection.value().seeds, (std::vector<NodeId>{1}));
  ASSERT_TRUE(selection.value().margin.has_value());
  const core::SeedMargin& margin = *selection.value().margin;
  const std::vector<double>& scores = selection.value().inverse_pagerank.scores;
  EXPECT_EQ(margin.gap, scores[1] - scores[0]);
  EXPECT_EQ(margin.bound,
            0.85 / (1 - 0.85) * selection.value().inverse_pagerank.residual);
  EXPECT_GT(margin.bound, 0.0);
  EXPECT_GT(margin.gap, margin.bound);
}

TEST(TrustRankSeedMarginTest, NearTieIsNotCertifiedAtALooseTolerance) {
  // b's lead is c·s_z/(sinks + 1)/(1 + c) ≈ 1.7e-10 with s_z = (1 − c)/n:
  // far below the bound at 1e-8, far above it at 1e-14.
  const int sinks = 19999;
  WebGraph g = TwoHubGraph(3, 3, sinks);
  const double n = g.num_nodes(), c = 0.85;
  const double lead = c * ((1 - c) / n) / (sinks + 1) / (1 + c);

  auto loose = SelectTrustRankSeeds(g, 1, nullptr, AtTolerance(1e-8));
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose.value().seeds, (std::vector<NodeId>{1}));
  ASSERT_TRUE(loose.value().margin.has_value());
  EXPECT_GT(loose.value().margin->gap, 0.0);
  EXPECT_LT(loose.value().margin->gap, loose.value().margin->bound);

  auto tight = SelectTrustRankSeeds(g, 1, nullptr, Precise());
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(tight.value().seeds, (std::vector<NodeId>{1}));
  ASSERT_TRUE(tight.value().margin.has_value());
  EXPECT_NEAR(tight.value().margin->gap, lead, 1e-3 * lead);
  EXPECT_GT(tight.value().margin->gap, tight.value().margin->bound);
}

TEST(TrustRankSeedMarginTest, OmittedOnlyWithoutACut) {
  WebGraph g = TwoHubGraph(1, 3, 4);
  const uint32_t n = g.num_nodes();
  for (uint32_t k : {n, n + 1}) {
    auto selection = SelectTrustRankSeeds(g, k, nullptr, Precise());
    ASSERT_TRUE(selection.ok());
    EXPECT_FALSE(selection.value().margin.has_value()) << "K = " << k;
  }
  auto below = SelectTrustRankSeeds(g, n - 1, nullptr, Precise());
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below.value().margin.has_value());

  // The bound holds for either dangling policy, so a cut always gets one.
  SolverOptions opt = Precise();
  opt.dangling = pagerank::DanglingPolicy::kRedistributeToJump;
  auto redistribute = SelectTrustRankSeeds(g, 1, nullptr, opt);
  ASSERT_TRUE(redistribute.ok());
  EXPECT_TRUE(redistribute.value().margin.has_value());
}

TEST(TrustRankTest, OracleFiltersSpamSeeds) {
  auto fig = synth::MakeFigure1Graph(30);
  auto result = SelectTrustRankSeeds(fig.graph, 4, &fig.labels, Precise());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (NodeId s : result.value().seeds) {
    EXPECT_TRUE(fig.labels.IsGood(s)) << "seed " << s;
  }
}

TEST(TrustRankTest, DemotionVsDetectionOnFigure2) {
  // TrustRank demotes the farm (low trust) but cannot *detect* it: good
  // nodes outside the trust flow (g2's subtree when only g1 seeds) look
  // identical to spam. Spam mass separates them (Section 5).
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, {fig.g1}, Precise());
  ASSERT_TRUE(trust.ok());
  EXPECT_EQ(trust.value()[fig.s0], trust.value()[fig.g3]);  // both zero
}

}  // namespace
}  // namespace spammass
