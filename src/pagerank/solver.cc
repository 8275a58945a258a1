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
  options.tolerance = 1e-8;
  options.max_iterations = 400;
  return options;
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

}  // namespace

Result<PageRankResult> ComputePageRank(const WebGraph& graph,
                                       const JumpVector& jump,
                                       const SolverOptions& options,
                                       SolverWorkspace* workspace) {
  SolverWorkspace local;
  SolverWorkspace* ws = workspace != nullptr ? workspace : &local;
  SPAMMASS_RETURN_NOT_OK(CheckGraphAndOptions(graph, options));
  SPAMMASS_RETURN_NOT_OK(CheckJump(graph, jump));
  PageRankResult result =
      std::move(SolveJacobiBatch(graph, {&jump}, options, ws).front());
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
  // Fused multi-RHS solves, in batches of at most kMaxVectorsPerSweep.
  for (size_t base = 0; base < jumps.size();
       base += kernel::kMaxVectorsPerSweep) {
    const size_t batch_end =
        std::min(base + kernel::kMaxVectorsPerSweep, jumps.size());
    std::vector<const JumpVector*> batch;
    batch.reserve(batch_end - base);
    for (size_t j = base; j < batch_end; ++j) batch.push_back(&jumps[j]);
    std::vector<PageRankResult> batch_results =
        SolveJacobiBatch(graph, batch, options, ws);
    for (PageRankResult& r : batch_results) results.push_back(std::move(r));
  }
  for (size_t j = 0; j < results.size(); ++j) {
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
