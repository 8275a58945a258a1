// Sweep-body equivalence. The Jacobi kernel runs the AVX2 body on hosts
// with AVX2 and the scalar body elsewhere; the two must give the same bits,
// so a result never depends on the host:
//   * at the kernel: for every lane width 1..16, in place and out of place,
//     over several chunks of a graph with hubs and dangling nodes, the AVX2
//     body equals the scalar body bit for bit (both reached through
//     simd::PickSweep),
//   * at the solver: a whole multi-lane Jacobi solve pinned to the scalar
//     body equals the default solve bit for bit,
//   * every body stays bit-identical to itself across thread counts.
// The AVX2 comparisons skip on hosts without AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
#include "pagerank/simd.h"
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
namespace kernel = pagerank::kernel;
namespace simd = pagerank::simd;

WebGraph MakeGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n * 3 / 4));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

/// MakeGraph plus two hubs: nodes 1 and 2 receive a link from every other
/// node of the first three quarters, so their gathers run thousands of
/// edges and cross the prefetch look-ahead many times. The last quarter
/// has no outlinks (dangling).
WebGraph MakeHubGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n * 3 / 4));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  for (NodeId u = 0; u < n * 3 / 4; ++u) {
    if (u != 1) b.AddEdge(u, 1);
    if (u != 2) b.AddEdge(u, 2);
  }
  return b.Build();
}

std::vector<JumpVector> MakeJumps(uint32_t n, uint32_t k, uint64_t seed) {
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(n));
  util::Rng rng(seed);
  for (uint32_t j = 1; j < k; ++j) {
    std::vector<double> v(n);
    double norm = 0;
    for (double& x : v) {
      x = rng.Uniform01();
      norm += x;
    }
    for (double& x : v) x /= norm;
    jumps.push_back(JumpVector::FromDense(std::move(v)));
  }
  return jumps;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameResult(const PageRankResult& want, const PageRankResult& got,
                      const std::string& label) {
  EXPECT_EQ(want.iterations, got.iterations) << label;
  EXPECT_EQ(want.converged, got.converged) << label;
  EXPECT_TRUE(BitIdentical({want.residual}, {got.residual})) << label;
  EXPECT_TRUE(BitIdentical(want.residual_history, got.residual_history))
      << label;
  EXPECT_TRUE(BitIdentical(want.scores, got.scores)) << label;
}

/// One sweep of `body` over every chunk of kernel::ChunkSize(n), the way
/// WeightedJacobiSweepMulti decomposes it; diffs receives NumChunks(n)·k
/// per-chunk partials.
void RunChunked(simd::SweepRangeFn body, const simd::SweepArgs& args,
                uint32_t n, uint32_t k, std::vector<double>* diffs) {
  const uint64_t chunk = kernel::ChunkSize(n);
  diffs->assign(kernel::NumChunks(n) * k, -1.0);
  for (uint64_t c = 0, begin = 0; begin < n; ++c, begin += chunk) {
    const uint64_t end = std::min<uint64_t>(begin + chunk, n);
    body(args, diffs->data() + c * k, static_cast<NodeId>(begin),
         static_cast<NodeId>(end));
  }
}

TEST(SweepBodyTest, Avx2MatchesScalarBitwiseAtEveryWidth) {
  if (simd::Best() != simd::Level::kAvx2) {
    GTEST_SKIP() << "host has no AVX2";
  }
  const WebGraph g = MakeHubGraph(3000, 15000, /*seed=*/41);
  const uint32_t n = g.num_nodes();
  ASSERT_GT(kernel::NumChunks(n), 4u);
  ASSERT_FALSE(g.DanglingNodes().empty());

  util::Rng rng(7);
  for (uint32_t k = 1; k <= kernel::kMaxVectorsPerSweep; ++k) {
    // Values spanning twenty binades, so a contracted or reassociated
    // expression would round differently somewhere.
    std::vector<double> p(uint64_t{n} * k);
    for (double& x : p) {
      x = std::ldexp(rng.Uniform01(),
                     -static_cast<int>(rng.UniformIndex(20)));
    }
    std::vector<double> scaled(p.size());
    kernel::ScaleByInvOutDegree(g, k, p.data(), scaled.data(), nullptr);
    // Sparse lanes (one node in 23, shifted per lane), half of them on a
    // uniform base: the union of supports leaves nodes on the fill row at
    // every k.
    std::vector<JumpVector> lanes;
    std::vector<const JumpVector*> lane_ptrs;
    for (uint32_t j = 0; j < k; ++j) {
      std::vector<double> dense(n, 0.0);
      double total = 0;
      for (NodeId x = 0; x < n; ++x) {
        if ((x + j) % 23 != 0) continue;
        dense[x] = rng.Uniform01();
        total += dense[x];
      }
      for (double& x : dense) x = x / total * 0.5;
      JumpVector lane = JumpVector::FromDense(std::move(dense));
      if (j % 2 == 0) lane = lane.Plus(JumpVector::Uniform(n).Scaled(0.5));
      lanes.push_back(std::move(lane));
    }
    for (const JumpVector& lane : lanes) lane_ptrs.push_back(&lane);
    const kernel::LaneJumpTable jumps = kernel::BuildLaneJumps(lane_ptrs);
    ASSERT_LT(jumps.ids.size(), n);
    std::vector<double> m(k);
    for (double& x : m) x = 0.15 + 0.3 * rng.Uniform01();

    for (const bool in_place : {false, true}) {
      SCOPED_TRACE("k = " + std::to_string(k) +
                   (in_place ? ", in place" : ""));
      struct Output {
        std::vector<double> next, next_scaled, diffs;
      } out[2];
      const simd::Level levels[2] = {simd::Level::kScalar,
                                     simd::Level::kAvx2};
      for (int b = 0; b < 2; ++b) {
        out[b].next = in_place ? p : std::vector<double>(p.size(), -1.0);
        out[b].next_scaled.assign(p.size(), -1.0);
        simd::SweepArgs args;
        args.in_offsets = g.InOffsets().data();
        args.sources = g.Sources().data();
        args.inv = g.InvOutDegrees().data();
        args.v = jumps.View();
        args.c = 0.85;
        args.m = m.data();
        args.p = in_place ? out[b].next.data() : p.data();
        args.scaled = scaled.data();
        args.next = out[b].next.data();
        args.next_scaled = out[b].next_scaled.data();
        RunChunked(simd::PickSweep(levels[b], k), args, n, k,
                   &out[b].diffs);
      }
      EXPECT_TRUE(BitIdentical(out[0].next, out[1].next));
      EXPECT_TRUE(BitIdentical(out[0].next_scaled, out[1].next_scaled));
      EXPECT_TRUE(BitIdentical(out[0].diffs, out[1].diffs));
    }
  }
}

class SweepVariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeGraph(900, 5400, /*seed=*/101);
    jumps_ = MakeJumps(graph_.num_nodes(), 4, /*seed=*/5);
  }

  SolverOptions BaseOptions() {
    SolverOptions opt;
    opt.tolerance = 1e-12;
    opt.max_iterations = 300;
    opt.track_residuals = true;
    return opt;
  }

  std::vector<PageRankResult> Solve(const WebGraph& g,
                                    const SolverOptions& opt) {
    auto results = pagerank::ComputePageRankMulti(g, jumps_, opt);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    for (const PageRankResult& r : results.value()) {
      EXPECT_TRUE(r.converged);
    }
    return std::move(results).value();
  }

  /// The host's sweep levels: scalar, plus AVX2 where the CPU has it.
  static std::vector<simd::Level> Levels() {
    std::vector<simd::Level> levels = {simd::Level::kScalar};
    if (simd::Best() != simd::Level::kScalar) levels.push_back(simd::Best());
    return levels;
  }

  WebGraph graph_;
  std::vector<JumpVector> jumps_;
};

TEST_F(SweepVariantTest, SimdMatchesScalarBitwise) {
  if (simd::Best() != simd::Level::kAvx2) {
    GTEST_SKIP() << "host has no AVX2";
  }
  const SolverOptions opt = BaseOptions();
  std::vector<PageRankResult> want;
  {
    const simd::ScopedLevelOverride pin(simd::Level::kScalar);
    want = Solve(graph_, opt);
  }
  const std::vector<PageRankResult> got = Solve(graph_, opt);
  ASSERT_EQ(want.size(), got.size());
  for (size_t j = 0; j < want.size(); ++j) {
    ExpectSameResult(want[j], got[j], "lane " + std::to_string(j));
  }
}

TEST_F(SweepVariantTest, EveryVariantThreadCountDeterministic) {
  for (const simd::Level level : Levels()) {
    const simd::ScopedLevelOverride pin(level);
    SolverOptions opt = BaseOptions();
    opt.num_threads = 1;
    const auto serial = Solve(graph_, opt);
    for (uint32_t threads : {2u, 4u, 8u}) {
      opt.num_threads = threads;
      const auto parallel = Solve(graph_, opt);
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t j = 0; j < serial.size(); ++j) {
        ExpectSameResult(serial[j], parallel[j],
                         std::string(simd::LevelToString(level)) + " lane " +
                             std::to_string(j) + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST_F(SweepVariantTest, DefaultOptionsUnchangedByVariantMachinery) {
  // A solve through the default options must be bitwise reproducible call
  // over call (no hidden state from the dispatch).
  SolverOptions opt = BaseOptions();
  auto a = Solve(graph_, opt);
  auto b = Solve(graph_, opt);
  for (size_t j = 0; j < a.size(); ++j) {
    ExpectSameResult(a[j], b[j], "lane " + std::to_string(j));
  }
}

TEST_F(SweepVariantTest, InvalidCombinationsRejected) {
  // The vestigial compressed_gather option is rejected, not ignored.
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());
  SolverOptions comp = BaseOptions();
  comp.compressed_gather = true;
  EXPECT_EQ(pagerank::ComputePageRank(graph_, v, comp).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SweepVariantTest, SweepIsaNamesTheBodyThatRuns) {
  EXPECT_STREQ(pagerank::SweepIsa(), simd::LevelToString(simd::Best()));
  const simd::ScopedLevelOverride pin(simd::Level::kScalar);
  EXPECT_STREQ(pagerank::SweepIsa(), "scalar");
}

}  // namespace
}  // namespace spammass
