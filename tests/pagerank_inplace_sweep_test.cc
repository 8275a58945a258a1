// The fused Jacobi solve sweeps its iterate in place and reads each lane's
// jump through a table over the batch's supports. This suite pins that
// design to a test-local dense reference — a dense n·k jump array, a
// separate `next` buffer swapped in after every sweep, and the per-lane
// formula c·in_sum + v·((1−c) + c·d) with chunked residuals — bit for bit:
// scores, iteration counts and every residual of every lane, at every
// batch width, under both dangling policies, for 1 and 4 threads. The
// 4-thread runs write disjoint rows of the shared iterate concurrently;
// the name puts the suite under the CI thread-sanitizer job's filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "every_width_batch.h"
#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
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

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Sixteen lanes of mass 8^-j (so they converge at distinct sweeps and the
/// solve compacts through every width) cycling through the jump kinds the
/// detectors and tests build: uniform, scaled core, single node, uniform
/// plus a single node, and a dense vector with zeros.
std::vector<JumpVector> MixedLaneJumps(uint32_t n) {
  std::vector<JumpVector> jumps;
  for (uint32_t j = 0; j < pagerank::kernel::kMaxVectorsPerSweep; ++j) {
    const double mass = std::ldexp(1.0, -3 * static_cast<int>(j));
    switch (j % 5) {
      case 0:
        jumps.push_back(JumpVector::Uniform(n).Scaled(mass));
        break;
      case 1: {
        std::vector<NodeId> core;
        for (uint32_t x = 0; x <= j; ++x) core.push_back((7 * x + 5 * j) % n);
        jumps.push_back(JumpVector::ScaledCore(n, core, mass));
        break;
      }
      case 2:
        jumps.push_back(JumpVector::SingleNode(n, 3 * j + 1, mass));
        break;
      case 3:
        jumps.push_back(JumpVector::Uniform(n)
                            .Scaled(0.5)
                            .Plus(JumpVector::SingleNode(n, 2 * j + 5, 0.5))
                            .Scaled(mass));
        break;
      default: {
        std::vector<double> dense(n, 0.0);
        double total = 0;
        for (uint32_t x = j % 7; x < n; x += 7) {
          dense[x] = static_cast<double>(x % 13 + 1);
          total += dense[x];
        }
        for (double& x : dense) x = x / total * mass;
        jumps.push_back(JumpVector::FromDense(dense));
        break;
      }
    }
  }
  return jumps;
}

/// Sum over [0, total) of term(i), accumulated left to right inside each
/// chunk of kernel::ChunkSize(total) and then chunk by chunk — the
/// deterministic reduction order the solver's residuals and dangling sums
/// follow.
template <typename Term>
double ChunkedSum(uint64_t total, Term term) {
  const uint64_t chunk = pagerank::kernel::ChunkSize(total);
  double sum = 0.0;
  for (uint64_t begin = 0; begin < total; begin += chunk) {
    double part = 0.0;
    for (uint64_t i = begin; i < std::min(begin + chunk, total); ++i) {
      part += term(i);
    }
    sum += part;
  }
  return sum;
}

/// Fused Jacobi the way the solver ran it before its sweeps went in place:
/// dense interleaved jump, iterate and `next` arrays; every live lane
/// advances each sweep and a lane freezes once its residual drops below
/// the tolerance.
std::vector<PageRankResult> DenseReferenceJacobi(
    const WebGraph& g, const std::vector<JumpVector>& jumps,
    const SolverOptions& opt) {
  const uint64_t n = g.num_nodes();
  const auto k = static_cast<uint32_t>(jumps.size());
  std::vector<double> v(n * k);
  for (uint32_t j = 0; j < k; ++j) {
    const std::vector<double> dense = jumps[j].ToDense();
    for (uint64_t x = 0; x < n; ++x) v[x * k + j] = dense[x];
  }
  std::vector<double> p = v;
  std::vector<double> next(n * k, 0.0);
  std::vector<double> scaled(n * k, 0.0);
  const auto inv = g.InvOutDegrees();
  const auto dangling_nodes = g.DanglingNodes();
  const double c = opt.damping;
  const bool redistribute =
      opt.dangling == pagerank::DanglingPolicy::kRedistributeToJump;

  std::vector<PageRankResult> results(k);
  std::vector<bool> live(k, true);
  std::vector<double> diffs(k, 0.0);
  const auto lane = [&](uint32_t j) {
    std::vector<double> scores(n);
    for (uint64_t x = 0; x < n; ++x) scores[x] = p[x * k + j];
    return scores;
  };
  for (int i = 0; i < opt.max_iterations; ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      if (!live[j]) continue;
      double d = 0.0;
      if (redistribute) {
        d = ChunkedSum(dangling_nodes.size(), [&](uint64_t t) {
          return p[static_cast<uint64_t>(dangling_nodes[t]) * k + j];
        });
      }
      const double m = (1.0 - c) + c * d;
      for (uint64_t x = 0; x < n; ++x) {
        scaled[x * k + j] = p[x * k + j] * inv[x];
      }
      diffs[j] = ChunkedSum(n, [&](uint64_t y) {
        double in_sum = 0.0;
        for (NodeId x : g.InNeighbors(static_cast<NodeId>(y))) {
          in_sum += scaled[static_cast<uint64_t>(x) * k + j];
        }
        const double out = c * in_sum + v[y * k + j] * m;
        next[y * k + j] = out;
        return std::abs(out - p[y * k + j]);
      });
    }
    p.swap(next);
    for (uint32_t j = 0; j < k; ++j) {
      if (!live[j]) continue;
      PageRankResult& r = results[j];
      r.iterations = i + 1;
      r.residual = diffs[j];
      r.residual_history.push_back(diffs[j]);
      if (diffs[j] < opt.tolerance) {
        r.converged = true;
        r.scores = lane(j);
        live[j] = false;
      }
    }
  }
  for (uint32_t j = 0; j < k; ++j) {
    if (live[j]) results[j].scores = lane(j);
  }
  return results;
}

void ExpectSameResult(const PageRankResult& got, const PageRankResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(Bits(got.residual), Bits(want.residual));
  ASSERT_EQ(got.residual_history.size(), want.residual_history.size());
  for (size_t i = 0; i < want.residual_history.size(); ++i) {
    ASSERT_EQ(Bits(got.residual_history[i]), Bits(want.residual_history[i]))
        << "residual of sweep " << i;
  }
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (size_t x = 0; x < want.scores.size(); ++x) {
    ASSERT_EQ(Bits(got.scores[x]), Bits(want.scores[x])) << "node " << x;
  }
}

TEST(ParallelJacobiInPlaceTest, MatchesDenseReferenceAtEveryWidth) {
  // n = 3000 gives 12 reduction chunks, so 4 threads each own several.
  const WebGraph g = MakeSyntheticGraph(3000, 15000, /*seed=*/91);
  ASSERT_GT(g.num_dangling(), 0u);
  const std::vector<JumpVector> jumps = MixedLaneJumps(g.num_nodes());
  SolverOptions base;
  base.tolerance = 1e-13;
  base.max_iterations = 2000;
  base.track_residuals = true;

  for (bool redistribute : {false, true}) {
    base.dangling = redistribute
                        ? pagerank::DanglingPolicy::kRedistributeToJump
                        : pagerank::DanglingPolicy::kLeak;
    const std::vector<PageRankResult> want =
        DenseReferenceJacobi(g, jumps, base);
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("redistribute = " + std::to_string(redistribute) +
                   ", threads = " + std::to_string(threads));
      SolverOptions opt = base;
      opt.num_threads = threads;
      auto got = pagerank::ComputePageRankMulti(g, jumps, opt);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(testutil::CompactionWidths(got.value()),
                testutil::AllWidths());
      for (size_t j = 0; j < jumps.size(); ++j) {
        SCOPED_TRACE("lane " + std::to_string(j));
        ExpectSameResult(got.value()[j], want[j]);
      }
    }
  }
}

}  // namespace
}  // namespace spammass
