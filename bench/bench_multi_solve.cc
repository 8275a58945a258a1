// Multi-vector (multi-RHS) sweep scaling: how the per-vector cost of a
// fused ComputePageRankMulti falls as k vectors share one CSR traversal
// per sweep, against k independent single-vector solves. The dominant
// solve cost is the graph's memory traffic, so the fused path approaches
// "k vectors for the price of one" until the interleaved iterate stops
// fitting in cache. Emits per-vector millisecond counters so the JSON
// collector can chart the amortization curve.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include <cstdint>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "util/logging.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;

const WebGraph& BenchGraph() {
  static WebGraph* graph = [] {
    constexpr uint32_t n = 100'000;
    constexpr uint32_t m = 1'000'000;
    util::Rng rng(99);
    graph::GraphBuilder b(n);
    for (uint32_t e = 0; e < m; ++e) {
      auto u = static_cast<NodeId>(rng.UniformIndex(n * 3 / 4));
      auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u != v) b.AddEdge(u, v);
    }
    return new WebGraph(b.Build());
  }();
  return *graph;
}

/// k distinct core jump vectors (disjoint strides, so every lane converges
/// on its own schedule).
std::vector<JumpVector> MakeJumps(uint32_t k) {
  const WebGraph& g = BenchGraph();
  std::vector<JumpVector> jumps;
  for (uint32_t j = 0; j < k; ++j) {
    std::vector<NodeId> core;
    for (NodeId x = j; x < g.num_nodes(); x += 2 * k) core.push_back(x);
    jumps.push_back(JumpVector::Core(g.num_nodes(), core));
  }
  return jumps;
}

pagerank::SolverOptions Options() {
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  return opt;
}

void BM_FusedMultiSolve(benchmark::State& state) {
  const WebGraph& g = BenchGraph();
  const auto k = static_cast<uint32_t>(state.range(0));
  const auto jumps = MakeJumps(k);
  const auto opt = Options();
  pagerank::SolverWorkspace ws;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value());
  }
  state.counters["vectors"] = k;
}
// k = 3 is the pipeline's production width: spam mass's p and p′ fused
// with the TrustRank solve.
BENCHMARK(BM_FusedMultiSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_IndependentSolves(benchmark::State& state) {
  const WebGraph& g = BenchGraph();
  const auto k = static_cast<uint32_t>(state.range(0));
  const auto jumps = MakeJumps(k);
  const auto opt = Options();
  pagerank::SolverWorkspace ws;
  for (auto _ : state) {
    for (const JumpVector& v : jumps) {
      auto r = pagerank::ComputePageRank(g, v, opt, &ws);
      CHECK_OK(r.status());
      benchmark::DoNotOptimize(r.value().scores);
    }
  }
  state.counters["vectors"] = k;
}
BENCHMARK(BM_IndependentSolves)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
