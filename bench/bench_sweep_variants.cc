// Bandwidth-variant matrix for the multi-RHS sweep: every combination of
// instruction set (scalar vs. the best vector backend), lane precision
// (f64 vs. mixed f32), and successor encoding (plain CSR vs.
// delta/varint-compressed) at the k=4 lane count the two-solve mass
// estimation plus TrustRank batch actually issues — on a power-law web
// whose working set defeats the last-level cache, so the sweep is
// memory-bound and byte savings translate to wall-clock.
//
// Every variant entry carries a `bytes_per_edge` counter: the traffic
// model documented in docs/performance.md (successor-id bytes per edge,
// exact for both encodings, plus k lane reads at the storage width).
// tools/bench_to_json.py pairs the entries into speedup ratios and a
// bytes-per-edge reduction for BENCH_solver.json.

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
using pagerank::SimdPolicy;
using pagerank::SweepPrecision;
namespace simd = pagerank::simd;

constexpr uint32_t kLanes = 4;

/// Power-law out-degrees (Zipf-ish source sampling over a shuffled rank
/// order) with uniform targets: a few hub rows with thousands of
/// successors and a long tail of near-dangling nodes, the shape crawls
/// produce and the regime the compressed gather is built for.
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

// Same structure (same seed), with the compressed in-adjacency attached.
// WebGraph is move-only, so the compressed twin is built independently.
const WebGraph& CompressedVariantGraph() {
  static WebGraph* graph = [] {
    auto* g = new WebGraph(BuildVariantGraph());
    g->BuildCompressedInAdjacency();
    return g;
  }();
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

pagerank::SolverOptions VariantOptions(SimdPolicy simd_policy,
                                       SweepPrecision precision,
                                       bool compressed) {
  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  opt.simd = simd_policy;
  opt.precision = precision;
  opt.compressed_gather = compressed;
  return opt;
}

/// Modelled sweep traffic per edge (docs/performance.md): successor-id
/// bytes (exact — 4 for plain CSR, measured blob bytes per edge when
/// compressed) plus k lane-value reads at the storage width.
double BytesPerEdge(const WebGraph& g, SweepPrecision precision,
                    bool compressed) {
  const double id_bytes =
      compressed ? static_cast<double>(g.compressed_in().bytes.size()) /
                       static_cast<double>(g.num_edges())
                 : static_cast<double>(sizeof(NodeId));
  const double lane_width =
      precision == SweepPrecision::kMixedF32 ? sizeof(float) : sizeof(double);
  return id_bytes + static_cast<double>(kLanes) * lane_width;
}

void RunVariant(benchmark::State& state, SimdPolicy simd_policy,
                SweepPrecision precision, bool compressed) {
  if (simd_policy == SimdPolicy::kAuto &&
      simd::Best() == simd::Level::kScalar) {
    state.SkipWithError("no vector backend on this host");
    return;
  }
  const WebGraph& g =
      compressed ? CompressedVariantGraph() : VariantGraph();
  const auto& jumps = VariantJumps();
  const auto opt = VariantOptions(simd_policy, precision, compressed);
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
  state.counters["bytes_per_edge"] = BytesPerEdge(g, precision, compressed);
}

void BM_SweepScalarF64Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kFloat64, false);
}
BENCHMARK(BM_SweepScalarF64Plain)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF64Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kFloat64, false);
}
BENCHMARK(BM_SweepSimdF64Plain)->Unit(benchmark::kMillisecond);

void BM_SweepScalarF64Compressed(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kFloat64, true);
}
BENCHMARK(BM_SweepScalarF64Compressed)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF64Compressed(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kFloat64, true);
}
BENCHMARK(BM_SweepSimdF64Compressed)->Unit(benchmark::kMillisecond);

void BM_SweepScalarF32Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kMixedF32, false);
}
BENCHMARK(BM_SweepScalarF32Plain)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF32Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kMixedF32, false);
}
BENCHMARK(BM_SweepSimdF32Plain)->Unit(benchmark::kMillisecond);

void BM_SweepScalarF32Compressed(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kMixedF32, true);
}
BENCHMARK(BM_SweepScalarF32Compressed)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF32Compressed(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kMixedF32, true);
}
BENCHMARK(BM_SweepSimdF32Compressed)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
