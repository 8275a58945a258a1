// SolverWorkspace lifetime contract (pagerank/workspace.h): a workspace
// caches *resources* (thread pool, scratch vectors) but never *results* —
// every solve through a reused workspace must return bit-identical output
// to a fresh-state solve. The suite drives the risky reuse patterns:
// interleaving solves over graphs of different sizes (buffers must resize
// but stale contents must never leak into results), switching thread
// counts mid-stream (pool replacement), and long solve chains. It also
// pins the layout the sweep's gather relies on: every interleaved lane
// buffer starts on a cache line.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "every_width_batch.h"
#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "util/cache_aligned.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::SolverOptions;
using pagerank::SolverWorkspace;

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

TEST(SolverWorkspaceTest, InterleavedGraphsMatchFreshSolves) {
  // A large and a small graph alternate through ONE workspace; the second
  // graph's solves run inside buffers sized (and dirtied) by the first.
  WebGraph big = MakeSyntheticGraph(900, 4500, /*seed=*/3);
  WebGraph small = MakeSyntheticGraph(120, 500, /*seed=*/5);
  SolverOptions opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 2000;

  SolverWorkspace ws;
  std::vector<std::vector<double>> reused;
  for (int round = 0; round < 2; ++round) {
    for (const WebGraph* g : {&big, &small}) {
      auto r = pagerank::ComputeUniformPageRank(*g, opt, &ws);
      ASSERT_TRUE(r.ok());
      reused.push_back(std::move(r.value().scores));
    }
  }
  EXPECT_EQ(ws.solve_count(), 4u);

  size_t i = 0;
  for (int round = 0; round < 2; ++round) {
    for (const WebGraph* g : {&big, &small}) {
      auto fresh = pagerank::ComputeUniformPageRank(*g, opt);
      ASSERT_TRUE(fresh.ok());
      ExpectBitIdentical(reused[i++], fresh.value().scores);
    }
  }
}

TEST(SolverWorkspaceTest, ThreadCountChangesReplaceThePool) {
  WebGraph g = MakeSyntheticGraph(600, 3000, /*seed=*/9);
  SolverOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = 40;

  SolverWorkspace ws;
  EXPECT_EQ(ws.pool(), nullptr);

  auto serial_ref = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(serial_ref.ok());

  for (uint32_t threads : {1u, 4u, 2u, 8u, 1u}) {
    opt.num_threads = threads;
    auto r = pagerank::ComputeUniformPageRank(g, opt, &ws);
    ASSERT_TRUE(r.ok());
    // Deterministic kernels: every thread count reproduces the serial
    // scores bit for bit, through pool replacements included.
    ExpectBitIdentical(r.value().scores, serial_ref.value().scores);
    if (threads > 1) {
      ASSERT_NE(ws.pool(), nullptr);
      EXPECT_EQ(ws.pool_threads(), threads);
    }
  }
  // The serial solves kept the last pool cached rather than tearing it
  // down (EnsurePool(1) returns nullptr but does not discard).
  EXPECT_NE(ws.pool(), nullptr);
}

TEST(SolverWorkspaceTest, MultiSolveAndMethodsShareOneWorkspace) {
  WebGraph g = MakeSyntheticGraph(400, 2000, /*seed=*/15);
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(g.num_nodes()));
  jumps.push_back(JumpVector::Core(g.num_nodes(), {1, 3, 5, 7}));

  SolverOptions opt;
  opt.tolerance = 1e-11;
  opt.max_iterations = 2000;

  SolverWorkspace ws;
  // Jacobi multi, then power iteration, both through the same workspace;
  // each must match its fresh-state twin.
  auto multi = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
  ASSERT_TRUE(multi.ok());

  opt.method = pagerank::Method::kPowerIteration;
  auto pi = pagerank::ComputePageRank(g, jumps[0], opt, &ws);
  ASSERT_TRUE(pi.ok());

  opt.method = pagerank::Method::kJacobi;
  auto fresh_multi = pagerank::ComputePageRankMulti(g, jumps, opt);
  ASSERT_TRUE(fresh_multi.ok());
  for (size_t j = 0; j < jumps.size(); ++j) {
    ExpectBitIdentical(multi.value()[j].scores,
                       fresh_multi.value()[j].scores);
  }
  opt.method = pagerank::Method::kPowerIteration;
  auto fresh_pi = pagerank::ComputePageRank(g, jumps[0], opt);
  ASSERT_TRUE(fresh_pi.ok());
  ExpectBitIdentical(pi.value().scores, fresh_pi.value().scores);
}

TEST(SolverWorkspaceTest, LongReuseChainStaysExact) {
  WebGraph g = MakeSyntheticGraph(250, 1200, /*seed=*/21);
  SolverOptions opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 2000;

  SolverWorkspace ws;
  auto fresh = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(fresh.ok());
  for (int i = 0; i < 20; ++i) {
    auto r = pagerank::ComputeUniformPageRank(g, opt, &ws);
    ASSERT_TRUE(r.ok());
    ExpectBitIdentical(r.value().scores, fresh.value().scores);
  }
  EXPECT_EQ(ws.solve_count(), 20u);
}

/// Asserts that every interleaved lane buffer is allocated and starts on a
/// cache line.
void ExpectLaneBuffersAligned(SolverWorkspace& ws, const std::string& when) {
  const struct {
    const char* name;
    const void* data;
  } buffers[] = {
      {"iterate", ws.iterate().data()},
      {"next", ws.next().data()},
      {"scaled", ws.scaled().data()},
      {"scaled_next", ws.scaled_next().data()},
  };
  for (const auto& buffer : buffers) {
    ASSERT_NE(buffer.data, nullptr) << buffer.name << " after " << when;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data) %
                  util::kCacheLineBytes,
              0u)
        << buffer.name << " after " << when;
  }
}

TEST(SolverWorkspaceTest, LaneBuffersStayCacheLineAligned) {
  SolverOptions jacobi;
  jacobi.tolerance = 1e-11;
  jacobi.max_iterations = 2000;
  SolverWorkspace ws;

  WebGraph small = MakeSyntheticGraph(120, 500, /*seed=*/5);
  const std::vector<JumpVector> pair = {
      JumpVector::Uniform(small.num_nodes()),
      JumpVector::Core(small.num_nodes(), {1, 3, 5})};
  ASSERT_TRUE(pagerank::ComputePageRankMulti(small, pair, jacobi, &ws).ok());
  // Only power iteration sizes `next`.
  SolverOptions power = jacobi;
  power.method = pagerank::Method::kPowerIteration;
  ASSERT_TRUE(pagerank::ComputePageRank(small, pair[0], power, &ws).ok());
  ExpectLaneBuffersAligned(ws, "first resize");

  WebGraph big = MakeSyntheticGraph(500, 2500, /*seed=*/1);
  const size_t small_size = ws.iterate().size();
  const std::vector<JumpVector> triple = {
      JumpVector::Uniform(big.num_nodes()),
      JumpVector::Core(big.num_nodes(), {2, 4}),
      JumpVector::SingleNode(big.num_nodes(), 9, 0.5)};
  ASSERT_TRUE(pagerank::ComputePageRankMulti(big, triple, jacobi, &ws).ok());
  ASSERT_GT(ws.iterate().size(), small_size);
  ExpectLaneBuffersAligned(ws, "growth");

  ws.iterate().swap(ws.next());
  ws.scaled().swap(ws.scaled_next());
  ExpectLaneBuffersAligned(ws, "swap");

  // Sixteen lanes compacting through every width down to one.
  SolverOptions f64;
  f64.tolerance = 1e-13;
  f64.max_iterations = 2000;
  auto batch = pagerank::ComputePageRankMulti(
      big, testutil::EveryWidthJumps(big.num_nodes()), f64, &ws);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(testutil::CompactionWidths(batch.value()),
            testutil::AllWidths());
  ExpectLaneBuffersAligned(ws, "compaction 16 -> 1");
}

TEST(SolverWorkspaceTest, JacobiLaneStateIsThreeArrays) {
  // A 16-lane Jacobi solve sweeps its iterate in place and reads the
  // jumps from a table over their supports, so the iterate and the two
  // scaled buffers are the only n·k arrays it sizes.
  WebGraph g = MakeSyntheticGraph(500, 2500, /*seed=*/1);
  const uint64_t n = g.num_nodes();
  const uint64_t k = pagerank::kernel::kMaxVectorsPerSweep;
  SolverOptions opt;
  opt.tolerance = 1e-13;
  opt.max_iterations = 2000;
  SolverWorkspace ws;
  auto batch = pagerank::ComputePageRankMulti(
      g, testutil::EveryWidthJumps(g.num_nodes()), opt, &ws);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(ws.iterate().size(), n * k);
  EXPECT_EQ(ws.scaled().size(), n * k);
  EXPECT_EQ(ws.scaled_next().size(), n * k);
  EXPECT_TRUE(ws.next().empty());
}

TEST(SolverWorkspaceTest, PreSpawnedPoolConstructor) {
  SolverWorkspace ws(/*num_threads=*/4);
  ASSERT_NE(ws.pool(), nullptr);
  EXPECT_EQ(ws.pool_threads(), 4u);
  EXPECT_EQ(ws.pool()->num_threads(), 4u);
  // EnsurePool with the same count must return the same pool object.
  EXPECT_EQ(ws.EnsurePool(4), ws.pool());
}

}  // namespace
}  // namespace spammass
