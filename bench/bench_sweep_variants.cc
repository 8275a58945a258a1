// The two sweep bodies of the multi-RHS Jacobi solve, scalar and AVX2,
// at the k=4 lane count the two-solve mass estimation plus TrustRank batch
// actually issues — on a power-law web whose working set defeats the
// last-level cache. The scalar run pins the body with
// simd::ScopedLevelOverride, so both reach their body through
// simd::PickSweep; the two give the same bits, so they run the same number
// of sweeps. Each entry repeats five times, and tools/bench_to_json.py
// pairs the medians into simd_multi_rhs_speedup_k4 for BENCH_solver.json.
//
// Every entry carries a `bytes_per_edge` counter: the traffic model
// documented in docs/performance.md (4 successor-id bytes per edge plus k
// f64 lane reads).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_json_main.h"
#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/simd.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "util/logging.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
namespace simd = pagerank::simd;

constexpr uint32_t kLanes = 4;

/// Power-law out-degrees (Zipf-ish source sampling over a shuffled rank
/// order) with uniform targets: a few hub rows with thousands of
/// successors and a long tail of near-dangling nodes, the shape crawls
/// produce.
WebGraph BuildVariantGraph() {
  constexpr uint32_t n = 300'000;
  constexpr uint32_t m = 3'000'000;
  util::Rng rng(4242);
  graph::GraphBuilder b(n);
  for (uint32_t e = 0; e < m; ++e) {
    // Inverse-CDF-style skew: u^5 piles sources onto the high ranks,
    // giving a heavy hub head and a long near-dangling tail.
    const double u = rng.Uniform01();
    const double rank = (n - 1) * (1.0 - u * u * u * u * u);
    auto src = static_cast<NodeId>(rank);
    auto dst = static_cast<NodeId>(rng.UniformIndex(n));
    if (src != dst) b.AddEdge(src, dst);
  }
  return b.Build();
}

const WebGraph& VariantGraph() {
  static WebGraph* graph = new WebGraph(BuildVariantGraph());
  return *graph;
}

/// The k=4 jump batch of a full detection pass: uniform PageRank, the
/// γ-scaled good-core jump, and two alternative-core lanes.
const std::vector<JumpVector>& VariantJumps() {
  static std::vector<JumpVector>* jumps = [] {
    const WebGraph& g = VariantGraph();
    const NodeId n = g.num_nodes();
    auto* v = new std::vector<JumpVector>();
    v->push_back(JumpVector::Uniform(n));
    for (uint32_t j = 0; j < kLanes - 1; ++j) {
      std::vector<NodeId> core;
      for (NodeId x = j; x < n; x += 5 + j) core.push_back(x);
      v->push_back(JumpVector::ScaledCore(n, core, 0.85));
    }
    return v;
  }();
  return *jumps;
}

pagerank::SolverOptions VariantOptions() {
  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  return opt;
}

/// Modelled sweep traffic per edge (docs/performance.md): the 4-byte
/// successor id plus k f64 lane-value reads.
constexpr double kBytesPerEdge = sizeof(NodeId) + kLanes * sizeof(double);

void RunBody(benchmark::State& state, simd::Level level) {
  if (level != simd::Level::kScalar && simd::Best() != level) {
    state.SkipWithError("host lacks this instruction set");
    return;
  }
  const simd::ScopedLevelOverride pin(level);
  const WebGraph& g = VariantGraph();
  const auto& jumps = VariantJumps();
  const auto opt = VariantOptions();
  pagerank::SolverWorkspace ws;
  int sweeps = 0;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    sweeps = r.value()[0].iterations;
    benchmark::DoNotOptimize(r.value());
  }
  state.counters["sweeps"] = sweeps;
  state.counters["lanes"] = kLanes;
  state.counters["bytes_per_edge"] = kBytesPerEdge;
}

void BM_SweepScalarF64Plain(benchmark::State& state) {
  RunBody(state, simd::Level::kScalar);
}
BENCHMARK(BM_SweepScalarF64Plain)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_SweepSimdF64Plain(benchmark::State& state) {
  RunBody(state, simd::Level::kAvx2);
}
BENCHMARK(BM_SweepSimdF64Plain)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
