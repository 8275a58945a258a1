// E11 (performance half): google-benchmark timings of the PageRank solver
// on synthetic webs — Jacobi, the linear-system solver of Section 2.2
// (EXPERIMENTS.md E11) — plus the cost of the full mass-estimation step
// (two PageRank solves) at the preset.
//
// The BM_Seed* benchmarks reimplement the pre-kernel (seed) solver inline —
// per-edge division p[x]/outdeg(x), full-n dangling scans, fresh scratch
// (and, in the parallel case, a fresh thread pool) per solve — as the
// baseline the optimized kernel path (pagerank/kernel.h + SolverWorkspace)
// is measured against. tools/bench_to_json.py derives the speedup ratios
// from the paired entries and records them in BENCH_solver.json.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/spam_mass.h"
#include "graph/graph_builder.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;

const synth::SyntheticWeb& SharedWeb() {
  static synth::SyntheticWeb* web = [] {
    auto r = synth::GenerateWeb(synth::TinyScenario(3));
    CHECK_OK(r.status());
    return new synth::SyntheticWeb(std::move(r.value()));
  }();
  return *web;
}

/// Larger random web for the kernel-vs-seed comparisons: enough edges that
/// the CSR gather dominates, with a dangling tail (ids in the top quarter
/// have no outlinks), matching the shape the kernels optimize for.
const WebGraph& PerfGraph() {
  static WebGraph* graph = [] {
    constexpr uint32_t n = 200'000;
    constexpr uint32_t m = 2'000'000;
    util::Rng rng(1234);
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

/// The good-core jump pair of the §4.2 two-solve mass estimation on
/// PerfGraph: uniform v and the γ-scaled core w.
const std::vector<JumpVector>& MassJumps() {
  static std::vector<JumpVector>* jumps = [] {
    const WebGraph& g = PerfGraph();
    std::vector<NodeId> core;
    for (NodeId x = 0; x < g.num_nodes(); x += 7) core.push_back(x);
    auto* v = new std::vector<JumpVector>();
    v->push_back(JumpVector::Uniform(g.num_nodes()));
    v->push_back(JumpVector::ScaledCore(g.num_nodes(), core, 0.85));
    return v;
  }();
  return *jumps;
}

/// Seed-style Jacobi solve, reproduced as the baseline: fresh iterate /
/// next vectors per call, one integer division per edge visit, and a
/// full-n IsDangling scan per sweep.
std::vector<double> SeedJacobiSolve(const WebGraph& g, const JumpVector& v,
                                    const pagerank::SolverOptions& opt,
                                    int* iterations) {
  const NodeId n = g.num_nodes();
  const double c = opt.damping;
  const bool redistribute =
      opt.dangling == pagerank::DanglingPolicy::kRedistributeToJump;
  const std::vector<double> vd = v.ToDense();
  std::vector<double> p = vd;
  std::vector<double> next(n);
  for (int i = 0; i < opt.max_iterations; ++i) {
    double dangling = 0;
    if (redistribute) {
      for (NodeId x = 0; x < n; ++x) {
        if (g.IsDangling(x)) dangling += p[x];
      }
    }
    double diff = 0;
    for (NodeId y = 0; y < n; ++y) {
      double in_sum = 0;
      for (NodeId x : g.InNeighbors(y)) {
        in_sum += p[x] / g.OutDegree(x);
      }
      const double out = c * (in_sum + vd[y] * dangling) + (1.0 - c) * vd[y];
      diff += std::abs(out - p[y]);
      next[y] = out;
    }
    p.swap(next);
    *iterations = i + 1;
    if (diff < opt.tolerance) break;
  }
  return p;
}

pagerank::SolverOptions PerfOptions() {
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  opt.dangling = pagerank::DanglingPolicy::kRedistributeToJump;
  return opt;
}

// ---- Single-threaded Jacobi: seed baseline vs. weighted kernel. ----

void BM_SeedJacobiBaseline(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const JumpVector v = JumpVector::Uniform(g.num_nodes());
  const auto opt = PerfOptions();
  int iterations = 0;
  for (auto _ : state) {
    auto scores = SeedJacobiSolve(g, v, opt, &iterations);
    benchmark::DoNotOptimize(scores);
  }
  state.counters["sweeps"] = iterations;
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_SeedJacobiBaseline)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_WeightedJacobi(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const JumpVector v = JumpVector::Uniform(g.num_nodes());
  const auto opt = PerfOptions();
  pagerank::SolverWorkspace ws;
  int iterations = 0;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRank(g, v, opt, &ws);
    CHECK_OK(r.status());
    iterations = r.value().iterations;
    benchmark::DoNotOptimize(r.value().scores);
  }
  state.counters["sweeps"] = iterations;
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_WeightedJacobi)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

// ---- Spam-mass two-solve path: seed baseline vs. fused multi-vector. ----

void BM_SeedMassEstimationBaseline(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const auto& jumps = MassJumps();
  const auto opt = PerfOptions();
  int iterations = 0;
  for (auto _ : state) {
    // Two fully independent seed-style solves, exactly as the seed
    // EstimateSpamMass issued them (p for the uniform jump, p′ for the
    // core jump), each paying its own CSR traversals and scratch.
    auto p = SeedJacobiSolve(g, jumps[0], opt, &iterations);
    auto pp = SeedJacobiSolve(g, jumps[1], opt, &iterations);
    benchmark::DoNotOptimize(p);
    benchmark::DoNotOptimize(pp);
  }
  state.counters["sweeps"] = iterations;
}
BENCHMARK(BM_SeedMassEstimationBaseline)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_FusedMassEstimation(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const auto& jumps = MassJumps();
  const auto opt = PerfOptions();
  pagerank::SolverWorkspace ws;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_FusedMassEstimation)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

/// The same two-solve pair on the shared synthetic web (the scenario graph
/// every paper-table bench uses, small enough to sit in cache — the regime
/// where the seed's per-edge division dominates the sweep).
const std::vector<JumpVector>& SharedWebMassJumps() {
  static std::vector<JumpVector>* jumps = [] {
    const auto& web = SharedWeb();
    const NodeId n = web.graph.num_nodes();
    auto* v = new std::vector<JumpVector>();
    v->push_back(JumpVector::Uniform(n));
    v->push_back(JumpVector::ScaledCore(n, web.AssembledGoodCore(), 0.85));
    return v;
  }();
  return *jumps;
}

void BM_SeedMassEstimationSharedWeb(benchmark::State& state) {
  const WebGraph& g = SharedWeb().graph;
  const auto& jumps = SharedWebMassJumps();
  const auto opt = PerfOptions();
  int iterations = 0;
  for (auto _ : state) {
    auto p = SeedJacobiSolve(g, jumps[0], opt, &iterations);
    auto pp = SeedJacobiSolve(g, jumps[1], opt, &iterations);
    benchmark::DoNotOptimize(p);
    benchmark::DoNotOptimize(pp);
  }
  state.counters["sweeps"] = iterations;
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_SeedMassEstimationSharedWeb)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_FusedMassEstimationSharedWeb(benchmark::State& state) {
  const WebGraph& g = SharedWeb().graph;
  const auto& jumps = SharedWebMassJumps();
  const auto opt = PerfOptions();
  pagerank::SolverWorkspace ws;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_FusedMassEstimationSharedWeb)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

// ---- Parallel Jacobi: fresh pool per solve vs. workspace-cached pool. ----

void BM_ParallelJacobiFreshPool(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const JumpVector v = JumpVector::Uniform(g.num_nodes());
  auto opt = PerfOptions();
  opt.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    // A fresh workspace per solve spawns (and joins) a fresh pool each
    // time — the seed solver's behavior.
    pagerank::SolverWorkspace ws;
    auto r = pagerank::ComputePageRank(g, v, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value().scores);
  }
}
BENCHMARK(BM_ParallelJacobiFreshPool)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void BM_ParallelJacobiWorkspace(benchmark::State& state) {
  const WebGraph& g = PerfGraph();
  const JumpVector v = JumpVector::Uniform(g.num_nodes());
  auto opt = PerfOptions();
  opt.num_threads = static_cast<uint32_t>(state.range(0));
  pagerank::SolverWorkspace ws(opt.num_threads);
  for (auto _ : state) {
    auto r = pagerank::ComputePageRank(g, v, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value().scores);
  }
}
BENCHMARK(BM_ParallelJacobiWorkspace)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

pagerank::SolverOptions Options() {
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  return opt;
}

void BM_PageRankJacobi(benchmark::State& state) {
  const auto& web = SharedWeb();
  int iterations = 0;
  for (auto _ : state) {
    auto r = pagerank::ComputeUniformPageRank(web.graph, Options());
    CHECK_OK(r.status());
    iterations = r.value().iterations;
    benchmark::DoNotOptimize(r.value().scores);
  }
  state.counters["sweeps"] = iterations;
  state.counters["edges"] = static_cast<double>(web.graph.num_edges());
}
BENCHMARK(BM_PageRankJacobi)->Unit(benchmark::kMillisecond);

void BM_MassEstimation(benchmark::State& state) {
  const auto& web = SharedWeb();
  auto good_core = web.AssembledGoodCore();
  core::SpamMassOptions options;
  options.solver = pagerank::SolverOptions::BenchPreset();
  for (auto _ : state) {
    auto r = core::EstimateSpamMass(web.graph, good_core, options);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value().relative_mass);
  }
}
BENCHMARK(BM_MassEstimation)->Unit(benchmark::kMillisecond);

void BM_SolverToleranceSweep(benchmark::State& state) {
  const auto& web = SharedWeb();
  pagerank::SolverOptions opt = pagerank::SolverOptions::BenchPreset();
  opt.tolerance = std::pow(10.0, -state.range(0));
  for (auto _ : state) {
    auto r = pagerank::ComputeUniformPageRank(web.graph, opt);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value().scores);
  }
}
BENCHMARK(BM_SolverToleranceSweep)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();
