// Sweep-variant validation matrix. The default configuration (scalar
// instruction set, float64 lanes) is the bit-exact reference; this suite
// pins every other combination against it:
//   * vectorized sweeps preserve per-lane accumulation order and may
//     differ only by FMA contraction — near-equality with a tight bound,
//   * mixed-f32 runs float32 pre-sweeps but always refines in float64, so
//     converged solves meet the same tolerance contract,
//   * every variant stays bit-identical to ITSELF across thread counts
//     (the deterministic chunked reductions are variant-independent),
//   * invalid option combinations fail validation up front.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
using pagerank::Method;
using pagerank::SimdPolicy;
using pagerank::SolverOptions;
using pagerank::SweepPrecision;
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

class SweepVariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeGraph(900, 5400, /*seed=*/101);
    jumps_ = MakeJumps(graph_.num_nodes(), 4, /*seed=*/5);
  }

  SolverOptions BaseOptions() {
    SolverOptions opt;
    opt.method = Method::kJacobi;
    opt.tolerance = 1e-12;
    opt.max_iterations = 300;
    return opt;
  }

  std::vector<std::vector<double>> Solve(const WebGraph& g,
                                         const SolverOptions& opt) {
    auto results = pagerank::ComputePageRankMulti(g, jumps_, opt);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    std::vector<std::vector<double>> scores;
    for (auto& r : results.value()) {
      EXPECT_TRUE(r.converged);
      scores.push_back(std::move(r.scores));
    }
    return scores;
  }

  WebGraph graph_;
  std::vector<JumpVector> jumps_;
};

TEST_F(SweepVariantTest, SimdMatchesScalarWithinFmaTolerance) {
  if (simd::Best() == simd::Level::kScalar) {
    GTEST_SKIP() << "host has no vector backend";
  }
  SolverOptions ref = BaseOptions();
  auto want = Solve(graph_, ref);
  SolverOptions vec = BaseOptions();
  vec.simd = SimdPolicy::kAuto;
  auto got = Solve(graph_, vec);
  ASSERT_EQ(want.size(), got.size());
  for (size_t j = 0; j < want.size(); ++j) {
    for (size_t x = 0; x < want[j].size(); ++x) {
      // Same accumulation order; only FMA contraction differs.
      EXPECT_NEAR(got[j][x], want[j][x], 1e-9)
          << "lane " << j << " node " << x;
    }
  }
}

TEST_F(SweepVariantTest, MixedF32MeetsToleranceContract) {
  SolverOptions ref = BaseOptions();
  ref.tolerance = 1e-10;
  auto want = Solve(graph_, ref);
  for (auto simd_policy : {SimdPolicy::kScalar, SimdPolicy::kAuto}) {
    SolverOptions mixed = ref;
    mixed.precision = SweepPrecision::kMixedF32;
    mixed.simd = simd_policy;
    auto results = pagerank::ComputePageRankMulti(graph_, jumps_, mixed);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (size_t j = 0; j < results.value().size(); ++j) {
      const auto& r = results.value()[j];
      // The final sweeps are float64: the convergence contract holds.
      EXPECT_TRUE(r.converged) << "lane " << j;
      EXPECT_LT(r.residual, mixed.tolerance) << "lane " << j;
      for (size_t x = 0; x < r.scores.size(); ++x) {
        // Both solves land within solver tolerance of the same fixed
        // point; the residual bounds the distance via the contraction.
        EXPECT_NEAR(r.scores[x], want[j][x], 1e-8)
            << "lane " << j << " node " << x;
      }
    }
  }
}

TEST_F(SweepVariantTest, EveryVariantThreadCountDeterministic) {
  struct Case {
    SimdPolicy simd;
    SweepPrecision precision;
  };
  const Case cases[] = {
      {SimdPolicy::kScalar, SweepPrecision::kFloat64},
      {SimdPolicy::kAuto, SweepPrecision::kFloat64},
      {SimdPolicy::kAuto, SweepPrecision::kMixedF32},
  };
  for (const Case& c : cases) {
    SolverOptions opt = BaseOptions();
    opt.simd = c.simd;
    opt.precision = c.precision;
    opt.num_threads = 1;
    auto serial = Solve(graph_, opt);
    for (uint32_t threads : {2u, 4u, 8u}) {
      opt.num_threads = threads;
      auto parallel = Solve(graph_, opt);
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t j = 0; j < serial.size(); ++j) {
        EXPECT_TRUE(BitIdentical(serial[j], parallel[j]))
            << "lane " << j << " threads " << threads;
      }
    }
  }
}

TEST_F(SweepVariantTest, DefaultOptionsUnchangedByVariantMachinery) {
  // The default-constructed options ARE the reference variant; a solve
  // through them must be bitwise reproducible call over call (no hidden
  // state from the variant plumbing).
  SolverOptions opt = BaseOptions();
  auto a = Solve(graph_, opt);
  auto b = Solve(graph_, opt);
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_TRUE(BitIdentical(a[j], b[j])) << "lane " << j;
  }
}

TEST_F(SweepVariantTest, PowerIterationSupportsVariants) {
  SolverOptions ref = BaseOptions();
  ref.method = Method::kPowerIteration;
  ref.tolerance = 1e-12;
  auto want = pagerank::ComputeUniformPageRank(graph_, ref);
  ASSERT_TRUE(want.ok());

  if (simd::Best() != simd::Level::kScalar) {
    SolverOptions vec = ref;
    vec.simd = SimdPolicy::kAuto;
    auto vec_got = pagerank::ComputeUniformPageRank(graph_, vec);
    ASSERT_TRUE(vec_got.ok());
    for (size_t x = 0; x < want.value().scores.size(); ++x) {
      EXPECT_NEAR(vec_got.value().scores[x], want.value().scores[x], 1e-9);
    }
  }
}

TEST_F(SweepVariantTest, InvalidCombinationsRejected) {
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());

  // Forcing the level the host lacks fails; kAuto never does.
  SolverOptions forced = BaseOptions();
  forced.simd = simd::IsSupported(simd::Level::kAvx2) ? SimdPolicy::kNeon
                                                      : SimdPolicy::kAvx2;
  EXPECT_FALSE(pagerank::ComputePageRank(graph_, v, forced).ok());

  SolverOptions auto_ok = BaseOptions();
  auto_ok.simd = SimdPolicy::kAuto;
  EXPECT_TRUE(pagerank::ComputePageRank(graph_, v, auto_ok).ok());

  // Mixed precision is a Jacobi-only feature.
  SolverOptions mixed_gs = BaseOptions();
  mixed_gs.method = Method::kGaussSeidel;
  mixed_gs.precision = SweepPrecision::kMixedF32;
  EXPECT_FALSE(pagerank::ComputePageRank(graph_, v, mixed_gs).ok());

  // The vestigial compressed_gather option is rejected, not ignored.
  SolverOptions comp = BaseOptions();
  comp.compressed_gather = true;
  EXPECT_EQ(pagerank::ComputePageRank(graph_, v, comp).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SweepVariantTest, StringConversionsRoundTrip) {
  for (SimdPolicy policy : {SimdPolicy::kScalar, SimdPolicy::kAuto,
                            SimdPolicy::kAvx2, SimdPolicy::kNeon}) {
    auto parsed =
        pagerank::SimdPolicyFromString(pagerank::SimdPolicyToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_FALSE(pagerank::SimdPolicyFromString("avx512").ok());
  for (SweepPrecision precision :
       {SweepPrecision::kFloat64, SweepPrecision::kMixedF32}) {
    auto parsed = pagerank::SweepPrecisionFromString(
        pagerank::SweepPrecisionToString(precision));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), precision);
  }
  EXPECT_FALSE(pagerank::SweepPrecisionFromString("f16").ok());
}

}  // namespace
}  // namespace spammass
