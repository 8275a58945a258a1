// Micro-benchmarks of the graph substrate: CSR construction, transpose,
// v2.2 binary load (the zero-copy mapped load with its full validation),
// BFS, statistics, and synthetic-web generation throughput.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include <cstdlib>
#include <string>

#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/logging.h"
#include "util/random.h"

namespace spammass {
namespace {

// The ingest benchmark runs on a ~100k-node, ~800k-edge random web.
constexpr uint32_t kIngestNodes = 100000;
constexpr double kIngestMeanDegree = 8.0;

void FillRandomEdges(graph::GraphBuilder* b, uint32_t n, double mean_degree,
                     uint64_t seed) {
  util::Rng rng(seed);
  uint64_t edges = static_cast<uint64_t>(n * mean_degree);
  for (uint64_t e = 0; e < edges; ++e) {
    auto u = static_cast<graph::NodeId>(rng.UniformIndex(n));
    auto v = static_cast<graph::NodeId>(rng.UniformIndex(n));
    if (u != v) b->AddEdge(u, v);
  }
}

graph::WebGraph RandomGraph(uint32_t n, double mean_degree, uint64_t seed) {
  graph::GraphBuilder b(n);
  FillRandomEdges(&b, n, mean_degree, seed);
  return b.Build();
}

std::string BenchTempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

void BM_GraphBuild(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    graph::WebGraph g = RandomGraph(n, 8.0, 11);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n * 8);
}
BENCHMARK(BM_GraphBuild)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_Transpose(benchmark::State& state) {
  graph::WebGraph g = RandomGraph(50000, 8.0, 13);
  for (auto _ : state) {
    graph::WebGraph t = g.Transposed();
    benchmark::DoNotOptimize(t.num_edges());
  }
}
BENCHMARK(BM_Transpose)->Unit(benchmark::kMillisecond);

// -- Ingest -----------------------------------------------------------------
// GraphBuilder::Build on the 100k-node web. The edge-stream refill is
// excluded via Pause/ResumeTiming so only the build is measured.

void BM_CsrBuildSerial(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    graph::GraphBuilder b(kIngestNodes);
    FillRandomEdges(&b, kIngestNodes, kIngestMeanDegree, 31);
    state.ResumeTiming();
    graph::WebGraph g = b.Build();
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_CsrBuildSerial)->Unit(benchmark::kMillisecond);

// -- Paged container: the mapped load, fully validated ----------------------
// A power-law web (hub-heavy sources, uniform targets) whose CSR is tens of
// megabytes, so the load's checksum and validation passes are measurable.

const graph::WebGraph& LoadGraph() {
  static const graph::WebGraph* g = [] {
    constexpr uint32_t n = 300'000;
    constexpr uint32_t m = 3'000'000;
    util::Rng rng(4242);
    graph::GraphBuilder b(n);
    for (uint32_t e = 0; e < m; ++e) {
      const double u = rng.Uniform01();
      const double rank = (n - 1) * (1.0 - u * u * u * u * u);
      auto src = static_cast<graph::NodeId>(rank);
      auto dst = static_cast<graph::NodeId>(rng.UniformIndex(n));
      if (src != dst) b.AddEdge(src, dst);
    }
    return new graph::WebGraph(b.Build());
  }();
  return *g;
}

/// The load graph serialized once; later iterations reuse the file (the
/// write is not part of any timed region).
const std::string& LoadV22Path() {
  static const std::string* path = [] {
    auto* p = new std::string(BenchTempPath("spammass_bench_load_v22.smwg"));
    CHECK_OK(graph::WriteBinaryV22(LoadGraph(), *p));
    return p;
  }();
  return *path;
}

void BM_PagedLoadMmap(benchmark::State& state) {
  const std::string& path = LoadV22Path();
  uint64_t mapped = 0;
  for (auto _ : state) {
    auto g = graph::ReadBinaryMmap(path);
    CHECK_OK(g.status());
    mapped = g.value().mapped_bytes();
    benchmark::DoNotOptimize(g.value());
  }
  state.counters["mapped_bytes"] = static_cast<double>(mapped);
}
BENCHMARK(BM_PagedLoadMmap)->Unit(benchmark::kMillisecond);

void BM_MultiSourceBfs(benchmark::State& state) {
  graph::WebGraph g = RandomGraph(50000, 8.0, 17);
  std::vector<graph::NodeId> sources;
  for (graph::NodeId s = 0; s < 100; ++s) sources.push_back(s * 97);
  for (auto _ : state) {
    auto reach = graph::ReachableFrom(g, sources);
    benchmark::DoNotOptimize(reach);
  }
}
BENCHMARK(BM_MultiSourceBfs)->Unit(benchmark::kMillisecond);

void BM_GraphStats(benchmark::State& state) {
  graph::WebGraph g = RandomGraph(100000, 8.0, 19);
  for (auto _ : state) {
    auto stats = graph::ComputeGraphStats(g);
    benchmark::DoNotOptimize(stats.isolated);
  }
}
BENCHMARK(BM_GraphStats)->Unit(benchmark::kMillisecond);

void BM_WeaklyConnectedComponents(benchmark::State& state) {
  graph::WebGraph g = RandomGraph(50000, 4.0, 23);
  for (auto _ : state) {
    uint32_t num = 0;
    auto comp = graph::WeaklyConnectedComponents(g, &num);
    benchmark::DoNotOptimize(comp);
  }
}
BENCHMARK(BM_WeaklyConnectedComponents)->Unit(benchmark::kMillisecond);

void BM_SyntheticWebGeneration(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto web = synth::GenerateWeb(synth::Yahoo2004Scenario(scale, 29));
    CHECK_OK(web.status());
    benchmark::DoNotOptimize(web.value().graph.num_edges());
  }
}
BENCHMARK(BM_SyntheticWebGeneration)
    ->Arg(2)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
