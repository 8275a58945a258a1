#include "pagerank/solver.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pagerank/kernel.h"
#include "pagerank/simd.h"
#include "pagerank/solver_validate.h"
#include "util/debug.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace spammass::pagerank {

using graph::WebGraph;
using util::Result;
using util::Status;

double L1Norm(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += std::abs(x);
  return sum;
}

SolverOptions SolverOptions::BenchPreset() {
  SolverOptions options;
  options.method = Method::kJacobi;
  options.tolerance = 1e-8;
  options.max_iterations = 400;
  return options;
}

const char* MethodToString(Method method) {
  switch (method) {
    case Method::kJacobi:
      return "jacobi";
    case Method::kPowerIteration:
      return "power-iteration";
  }
  return "unknown";
}

Result<Method> MethodFromString(std::string_view name) {
  if (name == "jacobi") return Method::kJacobi;
  if (name == "power-iteration") return Method::kPowerIteration;
  return Status::InvalidArgument("unknown solver method: " +
                                 std::string(name));
}

const char* SweepIsa() { return simd::LevelToString(simd::Active()); }

std::vector<double> ScaledScores(const std::vector<double>& scores,
                                 double damping) {
  CHECK_GT(damping, 0.0);
  CHECK_LT(damping, 1.0);
  double factor = static_cast<double>(scores.size()) / (1.0 - damping);
  std::vector<double> out(scores);
  for (double& x : out) x *= factor;
  return out;
}

SolveStats SolveStats::FromResult(const PageRankResult& result) {
  SolveStats stats;
  stats.iterations = result.iterations;
  stats.residual = result.residual;
  stats.converged = result.converged;
  stats.residual_curve = result.residual_history;
  return stats;
}

namespace {

// Solver telemetry. Counters increment at the same granularity the
// workspace's RecordSolve uses (once per batch/solve), so the metrics
// snapshot's pagerank.solves always equals a manifest's total_solves.
// Pointers are cached — registration takes a lock, incrementing does not.
obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pagerank.solves");
  return counter;
}

obs::Counter* SweepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pagerank.sweeps");
  return counter;
}

obs::Histogram* IterationsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "pagerank.solve_iterations",
          {1, 2, 5, 10, 20, 50, 100, 200, 400, 800});
  return histogram;
}

/// Extracts lane `j` of the interleaved (n × k) buffer `flat` into `out`.
void ExtractLane(const util::LaneVector<double>& flat, uint64_t n, uint32_t k,
                 uint32_t j, std::vector<double>* out) {
  out->resize(n);
  for (uint64_t x = 0; x < n; ++x) (*out)[x] = flat[x * k + j];
}

/// Removes the columns NOT listed in `keep` (ascending) from the
/// interleaved (rows × k) buffer `flat`, packing the survivors to width
/// keep.size().
void CompactLanes(double* flat, uint64_t rows, uint32_t k,
                  const std::vector<uint32_t>& keep) {
  const auto kk = static_cast<uint32_t>(keep.size());
  for (uint64_t x = 0; x < rows; ++x) {
    const double* in = flat + x * k;
    double* out = flat + x * kk;
    for (uint32_t j = 0; j < kk; ++j) out[j] = in[keep[j]];
  }
}

/// Fused Jacobi solve (Algorithm 1) for a batch of 1..kMaxVectorsPerSweep
/// jump vectors: all in-flight lanes advance through one CSR traversal per
/// sweep. Each lane converges independently; a converged lane's scores are
/// extracted immediately and the lane is compacted out of the interleaved
/// working set, so finished vectors cost nothing while the rest keep
/// sweeping. Lane arithmetic is independent of the lane count, so lane j's
/// output is bit-identical to a standalone solve with jumps[j].
std::vector<PageRankResult> SolveJacobiBatch(
    const WebGraph& graph, const std::vector<const JumpVector*>& jumps,
    const SolverOptions& opt, SolverWorkspace* ws) {
  const auto k = static_cast<uint32_t>(jumps.size());
  const uint64_t n = graph.num_nodes();
  SPAMMASS_TRACE_SPAN("pagerank.solve", "method", "jacobi", "lanes", k);
  util::ThreadPool* pool = ws->EnsurePool(opt.num_threads);

  // The lane state is three n·k arrays: the iterate, which every sweep
  // overwrites in place, and the double-buffered scaled iterate the
  // gather reads. The jumps live in a table over their supports.
  util::LaneVector<double>& cur = ws->iterate();
  util::LaneVector<double>& scaled = ws->scaled();
  util::LaneVector<double>& scaled_next = ws->scaled_next();
  cur.resize(n * k);
  scaled.resize(n * k);
  scaled_next.resize(n * k);
  kernel::LaneJumpTable table = kernel::BuildLaneJumps(jumps);

  // Algorithm 1: p[0] <- v.
  for (uint64_t x = 0; x < n; ++x) {
    std::copy(table.fill.begin(), table.fill.end(), cur.data() + x * k);
  }
  for (uint64_t s = 0; s < table.ids.size(); ++s) {
    const double* row = table.rows.data() + s * k;
    std::copy(row, row + k, cur.data() + uint64_t{table.ids[s]} * k);
  }

  const bool redistribute =
      opt.dangling == DanglingPolicy::kRedistributeToJump;
  std::array<double, kernel::kMaxVectorsPerSweep> dangling{};
  std::array<double, kernel::kMaxVectorsPerSweep> diffs{};

  std::vector<PageRankResult> results(k);
  // lane_ids[j] = index into `results` of in-flight lane j.
  std::vector<uint32_t> lane_ids(k);
  for (uint32_t j = 0; j < k; ++j) lane_ids[j] = j;

  uint32_t live = k;
  // Seed the scaled iterate once; each sweep then emits next_scaled
  // alongside the new iterate (same values ScaleByInvOutDegree would
  // produce), so the full-pass rescale never runs again.
  kernel::ScaleByInvOutDegree(graph, live, cur.data(), scaled.data(), pool);
  if (!redistribute) dangling.fill(0.0);
  for (int i = 0; i < opt.max_iterations && live > 0; ++i) {
    if (redistribute) {
      kernel::DanglingSums(graph, live, cur.data(), &ws->dangling_partials(),
                           dangling.data(), pool);
    }
    kernel::WeightedJacobiSweepMulti(
        graph, live, table.View(), opt.damping, dangling.data(), cur.data(),
        scaled.data(), cur.data(), scaled_next.data(), &ws->node_partials(),
        diffs.data(), pool);
    scaled.swap(scaled_next);
    SweepsCounter()->Increment();

    std::vector<uint32_t> keep;
    keep.reserve(live);
    for (uint32_t j = 0; j < live; ++j) {
      PageRankResult& r = results[lane_ids[j]];
      r.iterations = i + 1;
      r.residual = diffs[j];
      if (opt.track_residuals) r.residual_history.push_back(diffs[j]);
      if (diffs[j] < opt.tolerance) {
        r.converged = true;
        ExtractLane(cur, n, live, j, &r.scores);
      } else {
        keep.push_back(j);
      }
    }
    if (keep.size() < live) {
      // Compact the surviving lanes; the dropped ones stop costing sweeps.
      CompactLanes(cur.data(), n, live, keep);
      CompactLanes(scaled.data(), n, live, keep);
      CompactLanes(table.fill.data(), 1, live, keep);
      CompactLanes(table.rows.data(), table.ids.size(), live, keep);
      for (uint32_t j = 0; j < keep.size(); ++j) {
        lane_ids[j] = lane_ids[keep[j]];
      }
      live = static_cast<uint32_t>(keep.size());
    }
  }
  // Lanes that hit the iteration cap without converging.
  for (uint32_t j = 0; j < live; ++j) {
    ExtractLane(cur, n, live, j, &results[lane_ids[j]].scores);
  }
  ws->RecordSolve();
  SolvesCounter()->Increment();
  for (const PageRankResult& r : results) {
    IterationsHistogram()->Observe(r.iterations);
  }
  return results;
}

PageRankResult SolveJacobi(const WebGraph& graph, const JumpVector& jump,
                           const SolverOptions& opt, SolverWorkspace* ws) {
  std::vector<const JumpVector*> jumps = {&jump};
  std::vector<PageRankResult> results =
      SolveJacobiBatch(graph, jumps, opt, ws);
  return std::move(results.front());
}

/// Power iteration on the stochasticized matrix T″ (Eq. 1). Requires a
/// normalizable jump vector; the result is the stationary distribution
/// (‖p‖₁ = 1) of the random walk with teleportation to v/‖v‖. The sweep,
/// the dangling sum, the norm guard, and the residual all run through the
/// deterministic kernel, so the method parallelizes with bit-identical
/// output for every thread count.
PageRankResult SolvePowerIteration(const WebGraph& graph,
                                   const JumpVector& jump,
                                   const SolverOptions& opt,
                                   SolverWorkspace* ws) {
  SPAMMASS_TRACE_SPAN("pagerank.solve", "method", "power-iteration");
  PageRankResult result;
  const uint32_t n = graph.num_nodes();
  const double c = opt.damping;
  util::ThreadPool* pool = ws->EnsurePool(opt.num_threads);

  // Normalize the jump distribution: every entry divided by the
  // left-to-right sum of all n entries, which JumpVector::Norm computes.
  kernel::LaneJumpTable v = kernel::BuildLaneJumps({&jump});
  const double vnorm = jump.Norm();
  for (double& x : v.fill) x /= vnorm;
  for (double& x : v.rows) x /= vnorm;

  util::LaneVector<double>& p = ws->iterate();
  util::LaneVector<double>& next = ws->next();
  util::LaneVector<double>& scaled = ws->scaled();
  p.assign(n, 1.0 / n);
  next.assign(n, 0.0);
  scaled.resize(n);

  for (int i = 0; i < opt.max_iterations; ++i) {
    kernel::ScaleByInvOutDegree(graph, 1, p.data(), scaled.data(), pool);
    double dangling = 0;
    kernel::DanglingSums(graph, 1, p.data(), &ws->dangling_partials(),
                         &dangling, pool);
    // ‖p‖ stays 1, so the teleport term is (1−c)·v·1ᵀp = (1−c)·v.
    double sweep_diff = 0;  // pre-normalization; the residual below is used
    kernel::WeightedJacobiSweepMulti(graph, 1, v.View(), c, &dangling,
                                     p.data(), scaled.data(), next.data(),
                                     /*next_scaled=*/nullptr,
                                     &ws->node_partials(), &sweep_diff,
                                     pool);
    // Guard against numerical drift of the norm.
    const double norm = kernel::DeterministicSum(
        pool, n,
        [&next](uint64_t begin, uint64_t end) {
          double s = 0;
          for (uint64_t x = begin; x < end; ++x) s += std::abs(next[x]);
          return s;
        },
        &ws->reduce_partials());
    kernel::ForEachChunk(pool, n,
                         [&next, norm](uint64_t, uint64_t begin,
                                       uint64_t end) {
                           for (uint64_t x = begin; x < end; ++x) {
                             next[x] /= norm;
                           }
                         });
    const double diff = kernel::DeterministicSum(
        pool, n,
        [&next, &p](uint64_t begin, uint64_t end) {
          double s = 0;
          for (uint64_t x = begin; x < end; ++x) {
            s += std::abs(next[x] - p[x]);
          }
          return s;
        },
        &ws->reduce_partials());
    p.swap(next);
    result.iterations = i + 1;
    result.residual = diff;
    SweepsCounter()->Increment();
    if (opt.track_residuals) result.residual_history.push_back(diff);
    if (diff < opt.tolerance) {
      result.converged = true;
      break;
    }
  }
  // Copy (not move): p aliases the workspace's reusable iterate buffer.
  result.scores.assign(p.begin(), p.end());
  ws->RecordSolve();
  SolvesCounter()->Increment();
  IterationsHistogram()->Observe(result.iterations);
  return result;
}

/// Argument checks shared by the single- and multi-vector entry points.
Status CheckGraphAndOptions(const WebGraph& graph,
                            const SolverOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("PageRank on an empty graph");
  }
  if (!(options.damping > 0.0) || !(options.damping < 1.0)) {
    return Status::InvalidArgument("damping factor must lie in (0, 1)");
  }
  if (options.tolerance < 0.0 || options.max_iterations <= 0) {
    return Status::InvalidArgument("bad tolerance or iteration cap");
  }
  if (options.compressed_gather) {
    return Status::InvalidArgument(
        "compressed_gather was removed; every sweep gathers from the plain "
        "in-CSR, so leave it false");
  }
  return Status::OK();
}

/// Per-jump-vector argument checks.
Status CheckJump(const WebGraph& graph, const JumpVector& jump) {
  if (jump.n() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "jump vector dimension does not match the graph");
  }
  double norm = jump.Norm();
  if (norm <= 0.0 || norm > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        "jump vector norm must satisfy 0 < ||v|| <= 1");
  }
  // Entry invariants beyond the cheap argument checks above: the jump
  // vector must be entrywise non-negative and finite. O(n), debug only.
  DCHECK_OK(ValidateJumpVector(jump));
  return Status::OK();
}

/// Dispatches one validated solve through `ws` (never null here).
PageRankResult SolveDispatch(const WebGraph& graph, const JumpVector& jump,
                             const SolverOptions& options,
                             SolverWorkspace* ws) {
  switch (options.method) {
    case Method::kJacobi:
      return SolveJacobi(graph, jump, options, ws);
    case Method::kPowerIteration:
      return SolvePowerIteration(graph, jump, options, ws);
  }
  return PageRankResult{};
}

}  // namespace

Result<PageRankResult> ComputePageRank(const WebGraph& graph,
                                       const JumpVector& jump,
                                       const SolverOptions& options,
                                       SolverWorkspace* workspace) {
  SolverWorkspace local;
  SolverWorkspace* ws = workspace != nullptr ? workspace : &local;
  SPAMMASS_RETURN_NOT_OK(CheckGraphAndOptions(graph, options));
  SPAMMASS_RETURN_NOT_OK(CheckJump(graph, jump));
  PageRankResult result = SolveDispatch(graph, jump, options, ws);
  if (result.scores.empty()) return Status::Internal("unknown method");
  // Post-conditions (non-negativity, mass conservation). O(n), debug only.
  DCHECK_OK(ValidateSolverResult(graph, jump, options, result));
  return result;
}

Result<std::vector<PageRankResult>> ComputePageRankMulti(
    const WebGraph& graph, const std::vector<JumpVector>& jumps,
    const SolverOptions& options, SolverWorkspace* workspace) {
  if (jumps.empty()) {
    return Status::InvalidArgument("multi-solve needs at least one jump");
  }
  SolverWorkspace local;
  SolverWorkspace* ws = workspace != nullptr ? workspace : &local;
  SPAMMASS_RETURN_NOT_OK(CheckGraphAndOptions(graph, options));
  for (const JumpVector& jump : jumps) {
    SPAMMASS_RETURN_NOT_OK(CheckJump(graph, jump));
  }

  std::vector<PageRankResult> results;
  results.reserve(jumps.size());
  if (options.method == Method::kJacobi) {
    // Fused multi-RHS path, in batches of at most kMaxVectorsPerSweep.
    for (size_t base = 0; base < jumps.size();
         base += kernel::kMaxVectorsPerSweep) {
      const size_t batch_end =
          std::min(base + kernel::kMaxVectorsPerSweep, jumps.size());
      std::vector<const JumpVector*> batch;
      batch.reserve(batch_end - base);
      for (size_t j = base; j < batch_end; ++j) batch.push_back(&jumps[j]);
      std::vector<PageRankResult> batch_results =
          SolveJacobiBatch(graph, batch, options, ws);
      for (PageRankResult& r : batch_results) {
        results.push_back(std::move(r));
      }
    }
  } else {
    // Power iteration: one vector at a time, still sharing the workspace
    // (pool + scratch reuse).
    for (const JumpVector& jump : jumps) {
      results.push_back(SolveDispatch(graph, jump, options, ws));
    }
  }
  for (size_t j = 0; j < results.size(); ++j) {
    if (results[j].scores.empty()) return Status::Internal("unknown method");
    DCHECK_OK(ValidateSolverResult(graph, jumps[j], options, results[j]));
  }
  return results;
}

Result<PageRankResult> ComputeUniformPageRank(const WebGraph& graph,
                                              const SolverOptions& options,
                                              SolverWorkspace* workspace) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("PageRank on an empty graph");
  }
  return ComputePageRank(graph, JumpVector::Uniform(graph.num_nodes()),
                         options, workspace);
}

}  // namespace spammass::pagerank
