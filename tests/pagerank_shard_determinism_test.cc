// The sharded Jacobi sweep's core contract: scores, residuals, and
// iteration counts are BIT-IDENTICAL to the unsharded kernel for every
// shard count and every thread count. The suite is named ParallelJacobi*
// so the ThreadSanitizer CI job's test filter picks it up — the boundary
// exchange plus per-shard sweeps over one shared pool is exactly the kind
// of code TSan should watch.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "every_width_batch.h"
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
using pagerank::ComputePageRank;
using pagerank::ComputePageRankMulti;
using pagerank::JumpVector;
using pagerank::PageRankResult;
using pagerank::SolverOptions;
using pagerank::SolverWorkspace;

/// Random graph with sources skewed to the lower half, so the upper half
/// is rich in dangling nodes and shard boundaries cut real edge traffic.
WebGraph MakeGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

SolverOptions JacobiOptions() {
  SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-13;
  opt.track_residuals = true;
  return opt;
}

/// Bitwise comparison — EXPECT_EQ on doubles, no tolerance anywhere.
void ExpectBitIdentical(const PageRankResult& a, const PageRankResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.residual, b.residual) << label;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i], b.scores[i]) << label << " node " << i;
  }
  ASSERT_EQ(a.residual_history.size(), b.residual_history.size()) << label;
  for (size_t i = 0; i < a.residual_history.size(); ++i) {
    ASSERT_EQ(a.residual_history[i], b.residual_history[i])
        << label << " sweep " << i;
  }
}

TEST(ParallelJacobiShardTest, BitIdenticalAcrossShardAndThreadCounts) {
  WebGraph g = MakeGraph(800, 5000, /*seed=*/23);
  SolverOptions base = JacobiOptions();
  auto reference = pagerank::ComputeUniformPageRank(g, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference.value().converged);

  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (uint32_t threads : {1u, 4u}) {
      SolverOptions opt = base;
      opt.shards = shards;
      opt.num_threads = threads;
      auto sharded = pagerank::ComputeUniformPageRank(g, opt);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectBitIdentical(reference.value(), sharded.value(),
                         "shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelJacobiShardTest, BitIdenticalUnderRedistributePolicy) {
  WebGraph g = MakeGraph(600, 3500, /*seed=*/29);
  SolverOptions base = JacobiOptions();
  base.dangling = pagerank::DanglingPolicy::kRedistributeToJump;
  auto reference = pagerank::ComputeUniformPageRank(g, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  SolverOptions opt = base;
  opt.shards = 4;
  opt.num_threads = 4;
  auto sharded = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(reference.value(), sharded.value(), "redistribute");
}

TEST(ParallelJacobiShardTest, MultiRhsShardedMatchesUnsharded) {
  // The spam-mass workload shape: fused multi-RHS lanes through one CSR
  // traversal, now sharded. Each lane must stay bit-identical. The second
  // batch compacts through every width from 16 down to 1, so the sharded
  // sweep runs the kernel body at each of them.
  WebGraph g = MakeGraph(700, 4200, /*seed=*/31);
  std::vector<JumpVector> spam_mass;
  spam_mass.push_back(JumpVector::Uniform(g.num_nodes()));
  spam_mass.push_back(JumpVector::Core(g.num_nodes(), {1, 5, 9, 44, 123}));
  spam_mass.push_back(JumpVector::SingleNode(g.num_nodes(), 17, 1.0));
  std::vector<JumpVector> every_width =
      testutil::EveryWidthJumps(g.num_nodes());

  for (const std::vector<JumpVector>* jumps : {&spam_mass, &every_width}) {
    const std::string batch =
        "k=" + std::to_string(jumps->size()) + " lane ";
    SolverOptions base = JacobiOptions();
    auto reference = ComputePageRankMulti(g, *jumps, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    if (jumps == &every_width) {
      EXPECT_EQ(testutil::CompactionWidths(reference.value()),
                testutil::AllWidths());
    }

    SolverOptions opt = base;
    opt.shards = 4;
    opt.num_threads = 4;
    auto sharded = ComputePageRankMulti(g, *jumps, opt);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded.value().size(), reference.value().size());
    for (size_t j = 0; j < jumps->size(); ++j) {
      ExpectBitIdentical(reference.value()[j], sharded.value()[j],
                         batch + std::to_string(j));
    }
  }
}

TEST(ParallelJacobiShardTest, WorkspaceRebuildsRuntimeOnShardCountChange) {
  // One workspace, alternating shard counts: the cached ShardRuntime is
  // rebuilt on each change and every solve still matches a fresh one.
  WebGraph g = MakeGraph(500, 3000, /*seed=*/37);
  SolverOptions base = JacobiOptions();
  auto reference = pagerank::ComputeUniformPageRank(g, base);
  ASSERT_TRUE(reference.ok());

  SolverWorkspace ws;
  const JumpVector uniform = JumpVector::Uniform(g.num_nodes());
  for (uint32_t shards : {2u, 8u, 2u}) {
    SolverOptions opt = base;
    opt.shards = shards;
    opt.num_threads = 4;
    auto sharded = ComputePageRank(g, uniform, opt, &ws);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectBitIdentical(reference.value(), sharded.value(),
                       "reused ws shards=" + std::to_string(shards));
  }
}

TEST(ParallelJacobiShardTest, ShardCountBeyondGraphSizeStillExact) {
  // More shards than aligned cut points: the plan clamps, results hold.
  WebGraph g = MakeGraph(64, 300, /*seed=*/41);
  SolverOptions base = JacobiOptions();
  auto reference = pagerank::ComputeUniformPageRank(g, base);
  ASSERT_TRUE(reference.ok());

  SolverOptions opt = base;
  opt.shards = 8;
  auto sharded = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(reference.value(), sharded.value(), "tiny graph");
}

TEST(ParallelJacobiShardTest, GaussSeidelIgnoresShards) {
  // Like num_threads, shards is a no-op for the sequential sweeps.
  WebGraph g = MakeGraph(400, 2500, /*seed=*/43);
  SolverOptions opt = JacobiOptions();
  opt.method = pagerank::Method::kGaussSeidel;
  auto plain = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  opt.shards = 8;
  auto sharded = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(plain.value(), sharded.value(), "gauss-seidel");
}

TEST(ParallelJacobiShardTest, RejectsIncompatibleOptions) {
  // shards > 1 promises bit-identity, so it only composes with the
  // bit-exact reference configuration.
  WebGraph g = MakeGraph(100, 500, /*seed=*/47);

  SolverOptions opt = JacobiOptions();
  opt.shards = 0;
  EXPECT_FALSE(pagerank::ComputeUniformPageRank(g, opt).ok());

  opt = JacobiOptions();
  opt.shards = 2;
  opt.method = pagerank::Method::kPowerIteration;
  EXPECT_FALSE(pagerank::ComputeUniformPageRank(g, opt).ok());

  opt = JacobiOptions();
  opt.shards = 2;
  opt.simd = pagerank::SimdPolicy::kAuto;
  EXPECT_FALSE(pagerank::ComputeUniformPageRank(g, opt).ok());

  opt = JacobiOptions();
  opt.shards = 2;
  opt.precision = pagerank::SweepPrecision::kMixedF32;
  EXPECT_FALSE(pagerank::ComputeUniformPageRank(g, opt).ok());

  opt = JacobiOptions();
  opt.shards = 2;
  opt.compressed_gather = true;
  g.BuildCompressedInAdjacency();
  EXPECT_FALSE(pagerank::ComputeUniformPageRank(g, opt).ok());
}

}  // namespace
}  // namespace spammass
