// The weighted (division-free) sweep kernel against a straightforward
// division-based reference. The kernel multiplies by the cached reciprocal
// 1/outdeg(x) instead of dividing by outdeg(x); IEEE rounds the two
// expressions differently (p·(1/d) carries the reciprocal's rounding
// error), so the comparison is NEAR-equality with a tight per-entry bound,
// NOT bitwise — the genuine bit-identity guarantees (multi-vector vs.
// standalone, parallel vs. serial, workspace reuse vs. fresh) live in the
// dedicated suites. Also covers the deterministic chunk decomposition and
// the dangling helpers the sweeps are built from.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
#include "pagerank/solver.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::SolverOptions;
namespace kernel = pagerank::kernel;

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

/// Seed-style Jacobi solve: per-edge division p[x]/outdeg(x), full-n
/// dangling scan, no precomputed weights. The ground truth the optimized
/// kernel must reproduce up to reciprocal rounding.
std::vector<double> ReferenceJacobi(const WebGraph& g, const JumpVector& v,
                                    double c, bool redistribute,
                                    int iterations) {
  const NodeId n = g.num_nodes();
  std::vector<double> p = v.ToDense();
  std::vector<double> next(n);
  for (int i = 0; i < iterations; ++i) {
    double dangling = 0;
    if (redistribute) {
      for (NodeId x = 0; x < n; ++x) {
        if (g.IsDangling(x)) dangling += p[x];
      }
    }
    for (NodeId y = 0; y < n; ++y) {
      double in_sum = 0;
      for (NodeId x : g.InNeighbors(y)) {
        in_sum += p[x] / g.OutDegree(x);
      }
      next[y] = c * (in_sum + v[y] * dangling) + (1.0 - c) * v[y];
    }
    p.swap(next);
  }
  return p;
}

TEST(KernelEquivalenceTest, WeightedSolveMatchesDivisionReference) {
  WebGraph g = MakeSyntheticGraph(600, 3000, /*seed=*/11);
  JumpVector v = JumpVector::Uniform(g.num_nodes());
  SolverOptions opt;
  opt.tolerance = 0.0;  // pin the iteration count
  opt.max_iterations = 50;

  for (bool redistribute : {false, true}) {
    opt.dangling = redistribute
                       ? pagerank::DanglingPolicy::kRedistributeToJump
                       : pagerank::DanglingPolicy::kLeak;
    auto got = pagerank::ComputePageRank(g, v, opt);
    ASSERT_TRUE(got.ok());
    std::vector<double> want =
        ReferenceJacobi(g, v, opt.damping, redistribute, opt.max_iterations);
    ASSERT_EQ(got.value().scores.size(), want.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_NEAR(got.value().scores[x], want[x], 1e-15)
          << "node " << x << " (redistribute=" << redistribute << ")";
    }
  }
}

TEST(KernelEquivalenceTest, SingleSweepMatchesReference) {
  WebGraph g = MakeSyntheticGraph(400, 1600, /*seed=*/29);
  const auto n = static_cast<uint64_t>(g.num_nodes());
  JumpVector v = JumpVector::Uniform(g.num_nodes());

  // Start from a non-trivial iterate so the sweep exercises varied values.
  util::Rng rng(5);
  std::vector<double> p(n);
  for (double& x : p) x = rng.Uniform01();

  std::vector<double> scaled(n), next(n), next_scaled(n), partials;
  const double dangling = 0.0;  // kLeak
  double diff = 0;
  kernel::ScaleByInvOutDegree(g, 1, p.data(), scaled.data(), nullptr);
  const kernel::LaneJumpTable jumps = kernel::BuildLaneJumps({&v});
  kernel::WeightedJacobiSweepMulti(g, 1, jumps.View(), 0.85, &dangling,
                                   p.data(), scaled.data(), next.data(),
                                   next_scaled.data(), &partials, &diff,
                                   nullptr);

  // The fused rescale output must be bitwise what a standalone
  // ScaleByInvOutDegree pass over `next` produces.
  std::vector<double> rescaled(n);
  kernel::ScaleByInvOutDegree(g, 1, next.data(), rescaled.data(), nullptr);

  for (NodeId y = 0; y < g.num_nodes(); ++y) {
    double in_sum = 0;
    for (NodeId x : g.InNeighbors(y)) in_sum += p[x] / g.OutDegree(x);
    double want = 0.85 * in_sum + 0.15 * v[y];
    EXPECT_NEAR(next[y], want, 1e-15) << "node " << y;
    EXPECT_EQ(next_scaled[y], rescaled[y]) << "node " << y;
  }
}

TEST(KernelEquivalenceTest, ScaleByInvOutDegreeZeroOnDangling) {
  WebGraph g = MakeSyntheticGraph(300, 900, /*seed=*/41);
  ASSERT_GT(g.num_dangling(), 0u);
  const auto n = static_cast<uint64_t>(g.num_nodes());
  std::vector<double> p(n, 0.5), scaled(n, -1.0);
  kernel::ScaleByInvOutDegree(g, 1, p.data(), scaled.data(), nullptr);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (g.IsDangling(x)) {
      // Exactly zero, not merely small: the sweep relies on x + 0.0 == x.
      EXPECT_EQ(scaled[x], 0.0) << "dangling node " << x;
    } else {
      EXPECT_NEAR(scaled[x], 0.5 / g.OutDegree(x), 1e-16);
    }
  }
}

TEST(KernelEquivalenceTest, DanglingSumsMatchFullScan) {
  WebGraph g = MakeSyntheticGraph(500, 1500, /*seed=*/61);
  ASSERT_GT(g.num_dangling(), 0u);
  const auto n = static_cast<uint64_t>(g.num_nodes());
  util::Rng rng(7);
  constexpr uint32_t k = 3;
  std::vector<double> p(n * k);
  for (double& x : p) x = rng.Uniform01();

  std::vector<double> partials;
  double sums[k];
  kernel::DanglingSums(g, k, p.data(), &partials, sums, nullptr);

  for (uint32_t j = 0; j < k; ++j) {
    double want = 0;
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      if (g.IsDangling(x)) want += p[x * k + j];
    }
    EXPECT_NEAR(sums[j], want, 1e-12) << "lane " << j;
  }
}

TEST(KernelChunkingTest, DecompositionCoversRangeExactly) {
  for (uint64_t total : {0ull, 1ull, 255ull, 256ull, 257ull, 10'000ull,
                         1'000'000ull}) {
    const uint64_t chunks = kernel::NumChunks(total);
    if (total == 0) {
      EXPECT_EQ(chunks, 0u);
      continue;
    }
    EXPECT_LE(chunks, kernel::kMaxChunks);
    const uint64_t size = kernel::ChunkSize(total);
    EXPECT_GE(size, std::min(total, kernel::kMinChunkSize));
    // Chunks tile [0, total) with no gaps or overlaps.
    uint64_t covered = 0, seen = 0;
    kernel::ForEachChunk(nullptr, total,
                         [&](uint64_t index, uint64_t begin, uint64_t end) {
                           EXPECT_EQ(index, seen);
                           EXPECT_EQ(begin, covered);
                           EXPECT_LT(begin, end);
                           covered = end;
                           ++seen;
                         });
    EXPECT_EQ(covered, total);
    EXPECT_EQ(seen, chunks);
  }
}

TEST(KernelChunkingTest, DeterministicSumBitIdenticalAcrossPools) {
  constexpr uint64_t kTotal = 100'000;
  util::Rng rng(13);
  std::vector<double> values(kTotal);
  for (double& x : values) x = rng.Uniform01() - 0.5;

  auto range_sum = [&values](uint64_t begin, uint64_t end) {
    double s = 0;
    for (uint64_t i = begin; i < end; ++i) s += values[i];
    return s;
  };

  std::vector<double> partials;
  const double serial =
      kernel::DeterministicSum(nullptr, kTotal, range_sum, &partials);
  for (uint32_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    std::vector<double> pool_partials;
    const double parallel =
        kernel::DeterministicSum(&pool, kTotal, range_sum, &pool_partials);
    uint64_t a, b;
    std::memcpy(&a, &serial, sizeof(a));
    std::memcpy(&b, &parallel, sizeof(b));
    EXPECT_EQ(a, b) << "threads=" << threads;
  }
  // And the value itself is the plain left-to-right chunked sum.
  double direct = 0;
  for (size_t i = 0; i < partials.size(); ++i) direct += partials[i];
  EXPECT_EQ(serial, direct);
}

}  // namespace
}  // namespace spammass
