// Pipeline artifact-cache perf: running two detectors (spam mass +
// TrustRank) over ONE shared PipelineContext vs. two independent runs
// that each load their own artifacts. The shared context computes base
// PageRank once and fuses every forward solve into a single multi-RHS
// stream; the independent runs pay for the base solve twice. The
// BENCH_pipeline.json ratio `pipeline_two_detector_cache_speedup` tracks
// the win.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "pipeline/context.h"
#include "pipeline/detector.h"
#include "pipeline/graph_source.h"
#include "util/logging.h"

namespace spammass {
namespace {

constexpr double kScale = 0.15;
constexpr uint64_t kSeed = 42;

/// One shared fixture web; generated once per process.
const pipeline::LoadedGraph& FixtureWeb() {
  static pipeline::LoadedGraph* loaded = [] {
    pipeline::GraphSource source =
        pipeline::GraphSource::Scenario(kScale, kSeed);
    auto result = source.Load();
    CHECK_OK(result.status());
    return new pipeline::LoadedGraph(std::move(result.value()));
  }();
  return *loaded;
}

pipeline::PipelineConfig BenchConfig() {
  pipeline::PipelineConfig config;
  return config;
}

void RunDetectorOnOwnContext(const char* name) {
  const pipeline::LoadedGraph& web = FixtureWeb();
  pipeline::PipelineConfig config = BenchConfig();
  pipeline::PipelineContext context(web, config);
  auto detector = pipeline::DetectorRegistry::Global().Create(name);
  CHECK_OK(detector.status());
  CHECK_OK(context.Prepare(detector.value()->Needs(context)));
  auto output = detector.value()->Run(context);
  CHECK_OK(output.status());
  benchmark::DoNotOptimize(output.value().flagged_count);
}

/// Baseline: each detector prepares its own context — the base PageRank
/// runs twice and no solve shares a CSR traversal with another.
void BM_TwoDetectorsIndependentRuns(benchmark::State& state) {
  FixtureWeb();  // exclude generation from timing
  for (auto _ : state) {
    RunDetectorOnOwnContext("spam_mass");
    RunDetectorOnOwnContext("trustrank");
  }
}
BENCHMARK(BM_TwoDetectorsIndependentRuns)->Unit(benchmark::kMillisecond);

/// Shared context: union the needs, prepare once, run both detectors
/// against the cached artifacts (exactly one base PageRank solve).
void BM_TwoDetectorsSharedContext(benchmark::State& state) {
  FixtureWeb();
  for (auto _ : state) {
    const pipeline::LoadedGraph& web = FixtureWeb();
    pipeline::PipelineConfig config = BenchConfig();
    pipeline::PipelineContext context(web, config);
    auto spam_mass = pipeline::DetectorRegistry::Global().Create("spam_mass");
    auto trustrank = pipeline::DetectorRegistry::Global().Create("trustrank");
    CHECK_OK(spam_mass.status());
    CHECK_OK(trustrank.status());
    CHECK_OK(context.Prepare(spam_mass.value()->Needs(context).Union(
        trustrank.value()->Needs(context))));
    CHECK_EQ(context.base_pagerank_solves(), 1u);
    auto mass_output = spam_mass.value()->Run(context);
    auto trust_output = trustrank.value()->Run(context);
    CHECK_OK(mass_output.status());
    CHECK_OK(trust_output.status());
    benchmark::DoNotOptimize(mass_output.value().flagged_count);
    benchmark::DoNotOptimize(trust_output.value().flagged_count);
  }
}
BENCHMARK(BM_TwoDetectorsSharedContext)->Unit(benchmark::kMillisecond);

/// Context reuse across detector sets: a third detector added after the
/// first Prepare only fills the artifact gap. Measures the incremental
/// cost of widening a prepared context (should be far below a fresh run).
void BM_WidenPreparedContext(benchmark::State& state) {
  FixtureWeb();
  for (auto _ : state) {
    const pipeline::LoadedGraph& web = FixtureWeb();
    pipeline::PipelineConfig config = BenchConfig();
    pipeline::PipelineContext context(web, config);
    pipeline::ArtifactNeeds needs;
    needs.mass_estimates = true;
    CHECK_OK(context.Prepare(needs));
    needs.graph_stats = true;
    CHECK_OK(context.Prepare(needs));
    benchmark::DoNotOptimize(context.GraphStats().num_edges);
  }
}
BENCHMARK(BM_WidenPreparedContext)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
