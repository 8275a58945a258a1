// Multi-vector (multi-RHS) solves: ComputePageRankMulti advances several
// jump vectors through one CSR traversal per sweep. The contract under test
// is exact — each fused lane must be bit-identical to a standalone
// ComputePageRank with the same jump vector, including iteration counts,
// residuals, and residual histories, even when the lanes converge after
// different numbers of sweeps (a converged lane freezes and copies through
// unchanged while the others keep iterating).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "every_width_batch.h"
#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
#include "pagerank/simd.h"
#include "pagerank/simd_sweep_body.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::PageRankResult;
using pagerank::SolverOptions;

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

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t abits, bbits;
    std::memcpy(&abits, &a[i], sizeof(abits));
    std::memcpy(&bbits, &b[i], sizeof(bbits));
    ASSERT_EQ(abits, bbits) << "diverge at " << i << ": " << a[i] << " vs "
                            << b[i];
  }
}

void ExpectResultIdentical(const PageRankResult& fused,
                           const PageRankResult& standalone) {
  EXPECT_EQ(fused.iterations, standalone.iterations);
  EXPECT_EQ(fused.converged, standalone.converged);
  uint64_t a, b;
  std::memcpy(&a, &fused.residual, sizeof(a));
  std::memcpy(&b, &standalone.residual, sizeof(b));
  EXPECT_EQ(a, b) << "residuals diverge";
  ExpectBitIdentical(fused.residual_history, standalone.residual_history);
  ExpectBitIdentical(fused.scores, standalone.scores);
}

TEST(MultiVectorTest, SpamMassPairMatchesStandaloneSolves) {
  WebGraph g = MakeSyntheticGraph(700, 3500, /*seed=*/19);
  std::vector<NodeId> core = {2, 9, 40, 180, 333, 512};
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(g.num_nodes()));
  jumps.push_back(
      JumpVector::ScaledCore(g.num_nodes(), core, /*gamma=*/0.85));

  SolverOptions opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 2000;
  opt.track_residuals = true;

  for (auto policy : {pagerank::DanglingPolicy::kLeak,
                      pagerank::DanglingPolicy::kRedistributeToJump}) {
    opt.dangling = policy;
    auto fused = pagerank::ComputePageRankMulti(g, jumps, opt);
    ASSERT_TRUE(fused.ok());
    ASSERT_EQ(fused.value().size(), 2u);
    for (size_t j = 0; j < jumps.size(); ++j) {
      auto standalone = pagerank::ComputePageRank(g, jumps[j], opt);
      ASSERT_TRUE(standalone.ok());
      ExpectResultIdentical(fused.value()[j], standalone.value());
    }
  }
}

TEST(MultiVectorTest, LanesConvergingAtDifferentTimesStayIndependent) {
  WebGraph g = MakeSyntheticGraph(500, 2500, /*seed=*/23);
  // A single-node jump concentrates mass and converges on a very different
  // schedule than the uniform jump; the fused solve must keep iterating the
  // slow lane after the fast one froze without perturbing either.
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(g.num_nodes()));
  jumps.push_back(JumpVector::SingleNode(g.num_nodes(), 3,
                                         1.0 / g.num_nodes()));
  jumps.push_back(JumpVector::Core(g.num_nodes(), {1, 2, 3, 4, 5}));

  SolverOptions opt;
  opt.tolerance = 1e-11;
  opt.max_iterations = 2000;
  opt.track_residuals = true;

  auto fused = pagerank::ComputePageRankMulti(g, jumps, opt);
  ASSERT_TRUE(fused.ok());
  std::vector<int> iterations;
  for (size_t j = 0; j < jumps.size(); ++j) {
    auto standalone = pagerank::ComputePageRank(g, jumps[j], opt);
    ASSERT_TRUE(standalone.ok());
    ASSERT_TRUE(standalone.value().converged);
    ExpectResultIdentical(fused.value()[j], standalone.value());
    iterations.push_back(fused.value()[j].iterations);
  }
  // The premise of the test: the lanes genuinely converge at different
  // sweeps (otherwise freezing was never exercised).
  EXPECT_NE(iterations[0], iterations[1]);
}

TEST(MultiVectorTest, CompactionThroughEveryWidthStaysBitIdentical) {
  // Sixteen lanes converging at sixteen distinct sweeps: compaction runs
  // the sweep at every width from 16 down to 1, and each width has its
  // own compile-time body. Every lane must still match its standalone
  // k = 1 solve bit for bit.
  WebGraph g = MakeSyntheticGraph(500, 2500, /*seed=*/1);
  const std::vector<JumpVector> jumps =
      testutil::EveryWidthJumps(g.num_nodes());

  SolverOptions opt;
  opt.tolerance = 1e-13;
  opt.max_iterations = 2000;
  opt.track_residuals = true;

  auto fused = pagerank::ComputePageRankMulti(g, jumps, opt);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), jumps.size());
  EXPECT_EQ(testutil::CompactionWidths(fused.value()),
            testutil::AllWidths());
  for (size_t j = 0; j < jumps.size(); ++j) {
    auto standalone = pagerank::ComputePageRank(g, jumps[j], opt);
    ASSERT_TRUE(standalone.ok());
    ASSERT_TRUE(standalone.value().converged) << "lane " << j;
    ExpectResultIdentical(fused.value()[j], standalone.value());
  }
}

/// Graphs on which the gather's prefetch look-ahead (kPrefetchEdges edges,
/// bounded by the chunk's last edge) runs off the end of `sources`.
std::vector<std::pair<std::string, WebGraph>> PrefetchBoundaryGraphs() {
  static_assert(pagerank::simd::kPrefetchEdges > 20);
  std::vector<std::pair<std::string, WebGraph>> graphs;
  graphs.emplace_back("one node, no edges", GraphBuilder(1).Build());
  // m = 20 < kPrefetchEdges: every edge's look-ahead is out of bounds.
  GraphBuilder few(80);
  for (NodeId x = 0; x < 20; ++x) few.AddEdge(x, (7 * x + 3) % 80);
  graphs.emplace_back("fewer edges than the look-ahead", few.Build());
  // n = 600 splits into chunks [0, 256), [256, 512), [512, 600). No edge
  // points at a node >= 500, so the second chunk ends in 12 rows with no
  // in-edges and the last chunk has none at all.
  util::Rng rng(/*seed=*/53);
  GraphBuilder tail(600);
  for (uint32_t e = 0; e < 3000; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(600));
    auto v = static_cast<NodeId>(rng.UniformIndex(500));
    if (u != v) tail.AddEdge(u, v);
  }
  graphs.emplace_back("empty trailing rows and last chunk", tail.Build());
  return graphs;
}

/// Sixteen jumps with masses 8^-j: the every-width batch where the graph
/// is large enough for it, single-node jumps otherwise.
std::vector<JumpVector> BoundaryJumps(uint32_t n) {
  if (n >= 76) return testutil::EveryWidthJumps(n);
  std::vector<JumpVector> jumps;
  for (uint32_t j = 0; j < pagerank::kernel::kMaxVectorsPerSweep; ++j) {
    jumps.push_back(JumpVector::SingleNode(
        n, j % n, std::ldexp(1.0, -3 * static_cast<int>(j))));
  }
  return jumps;
}

TEST(MultiVectorTest, PrefetchLookAheadStaysInBoundsOnEveryBody) {
  // Every width 1..16 through every sweep body, on graphs where the
  // look-ahead passes the last edge. A read past `sources` is what the
  // sanitizer build catches; every body must also stay bit-identical to
  // the standalone default solve.
  std::vector<pagerank::simd::Level> levels = {pagerank::simd::Level::kScalar};
  if (pagerank::simd::Best() != pagerank::simd::Level::kScalar) {
    levels.push_back(pagerank::simd::Best());
  }
  SolverOptions reference;
  reference.tolerance = 1e-12;
  reference.max_iterations = 2000;
  reference.track_residuals = true;

  for (const auto& [graph_name, g] : PrefetchBoundaryGraphs()) {
    const std::vector<JumpVector> jumps = BoundaryJumps(g.num_nodes());
    std::vector<PageRankResult> standalone;
    for (const JumpVector& jump : jumps) {
      auto r = pagerank::ComputePageRank(g, jump, reference);
      ASSERT_TRUE(r.ok()) << graph_name;
      standalone.push_back(std::move(r).value());
    }
    for (const pagerank::simd::Level level : levels) {
      const pagerank::simd::ScopedLevelOverride pin(level);
      for (uint32_t k = 1; k <= jumps.size(); ++k) {
        SCOPED_TRACE(graph_name + ", " + pagerank::simd::LevelToString(level) +
                     ", k = " + std::to_string(k));
        const std::vector<JumpVector> batch(jumps.begin(),
                                            jumps.begin() + k);
        auto fused = pagerank::ComputePageRankMulti(g, batch, reference);
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        for (uint32_t j = 0; j < k; ++j) {
          ExpectResultIdentical(fused.value()[j], standalone[j]);
        }
      }
    }
  }
}

TEST(MultiVectorTest, BatchLargerThanSweepCapSplitsTransparently) {
  WebGraph g = MakeSyntheticGraph(200, 900, /*seed=*/31);
  std::vector<JumpVector> jumps;
  for (uint32_t j = 0; j < pagerank::kernel::kMaxVectorsPerSweep + 3; ++j) {
    jumps.push_back(JumpVector::SingleNode(g.num_nodes(), j % g.num_nodes(),
                                           1.0 / g.num_nodes()));
  }
  SolverOptions opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 1000;

  auto fused = pagerank::ComputePageRankMulti(g, jumps, opt);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused.value().size(), jumps.size());
  for (size_t j = 0; j < jumps.size(); ++j) {
    auto standalone = pagerank::ComputePageRank(g, jumps[j], opt);
    ASSERT_TRUE(standalone.ok());
    ExpectBitIdentical(fused.value()[j].scores, standalone.value().scores);
  }
}

TEST(MultiVectorTest, RejectsEmptyBatch) {
  WebGraph g = MakeSyntheticGraph(50, 200, /*seed=*/43);
  auto r = pagerank::ComputePageRankMulti(g, {}, SolverOptions{});
  EXPECT_FALSE(r.ok());
}

TEST(MultiVectorTest, RejectsDimensionMismatchAnywhereInBatch) {
  WebGraph g = MakeSyntheticGraph(50, 200, /*seed=*/47);
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(g.num_nodes()));
  jumps.push_back(JumpVector::Uniform(g.num_nodes() + 1));  // wrong n
  auto r = pagerank::ComputePageRankMulti(g, jumps, SolverOptions{});
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace spammass
