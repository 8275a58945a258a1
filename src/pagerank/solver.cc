#include "pagerank/solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pagerank/kernel.h"
#include "pagerank/solver_validate.h"
#include "util/debug.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace spammass::pagerank {

using graph::NodeId;
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
  options.method = Method::kGaussSeidel;
  options.tolerance = 1e-10;
  options.max_iterations = 400;
  return options;
}

const char* MethodToString(Method method) {
  switch (method) {
    case Method::kJacobi:
      return "jacobi";
    case Method::kGaussSeidel:
      return "gauss-seidel";
    case Method::kSor:
      return "sor";
    case Method::kPowerIteration:
      return "power-iteration";
  }
  return "unknown";
}

Result<Method> MethodFromString(std::string_view name) {
  if (name == "jacobi") return Method::kJacobi;
  if (name == "gauss-seidel") return Method::kGaussSeidel;
  if (name == "sor") return Method::kSor;
  if (name == "power-iteration") return Method::kPowerIteration;
  return Status::InvalidArgument("unknown solver method: " +
                                 std::string(name));
}

const char* SimdPolicyToString(SimdPolicy policy) {
  switch (policy) {
    case SimdPolicy::kScalar:
      return "scalar";
    case SimdPolicy::kAuto:
      return "auto";
    case SimdPolicy::kAvx2:
      return "avx2";
    case SimdPolicy::kNeon:
      return "neon";
  }
  return "unknown";
}

Result<SimdPolicy> SimdPolicyFromString(std::string_view name) {
  if (name == "scalar") return SimdPolicy::kScalar;
  if (name == "auto") return SimdPolicy::kAuto;
  if (name == "avx2") return SimdPolicy::kAvx2;
  if (name == "neon") return SimdPolicy::kNeon;
  return Status::InvalidArgument("unknown simd policy: " + std::string(name));
}

const char* SweepPrecisionToString(SweepPrecision precision) {
  switch (precision) {
    case SweepPrecision::kFloat64:
      return "f64";
    case SweepPrecision::kMixedF32:
      return "mixed-f32";
  }
  return "unknown";
}

Result<SweepPrecision> SweepPrecisionFromString(std::string_view name) {
  if (name == "f64") return SweepPrecision::kFloat64;
  if (name == "mixed-f32") return SweepPrecision::kMixedF32;
  return Status::InvalidArgument("unknown sweep precision: " +
                                 std::string(name));
}

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

/// Maps the validated SolverOptions onto a kernel sweep variant. kAuto
/// resolves to the best level the host supports; a forced-but-unsupported
/// level was already rejected by CheckGraphAndOptions.
kernel::SweepVariant ResolveVariant(const SolverOptions& opt) {
  kernel::SweepVariant variant;
  switch (opt.simd) {
    case SimdPolicy::kScalar:
      variant.level = simd::Level::kScalar;
      break;
    case SimdPolicy::kAuto:
      variant.level = simd::Best();
      break;
    case SimdPolicy::kAvx2:
      variant.level = simd::Level::kAvx2;
      break;
    case SimdPolicy::kNeon:
      variant.level = simd::Level::kNeon;
      break;
  }
  return variant;
}

/// Sum of scores over dangling nodes. Scans the graph's precomputed
/// dangling-node list (ascending, so the addition order matches the seed
/// full-scan version bit for bit) instead of testing all n nodes.
double DanglingSum(const WebGraph& graph, const std::vector<double>& p) {
  double sum = 0;
  for (NodeId x : graph.DanglingNodes()) sum += p[x];
  return sum;
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

/// Narrows each value of `in` to float32.
std::vector<float> NarrowToF32(const std::vector<double>& in) {
  std::vector<float> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) out[i] = static_cast<float>(in[i]);
  return out;
}

/// Mixed-precision pre-phase (SweepPrecision::kMixedF32): runs float32
/// sweeps — half the lane memory traffic — until every lane's
/// float64-measured residual clears max(f32_switch_tolerance, tolerance)
/// or stops improving, then hands the widened iterate back to the float64
/// loop. No lane is ever marked converged here (only float64 sweeps decide
/// convergence), no lane is compacted (the phase is short), and the budget
/// of max_iterations − 1 guarantees at least one float64 refinement sweep.
/// Like the float64 loop it sweeps the iterate in place, reading the jumps
/// through a float32 narrowing of the batch's jump table.
/// Returns the number of sweeps spent, which the caller uses as the
/// float64 loop's starting iteration index; per-lane iteration counts and
/// residual history are updated in place.
int MixedPrecisionPrePhase(const WebGraph& graph, uint32_t k, uint64_t n,
                           const SolverOptions& opt,
                           const kernel::SweepVariant& variant,
                           bool redistribute, util::LaneVector<double>* cur,
                           const kernel::LaneJumpTable<double>& jumps,
                           std::vector<PageRankResult>* results,
                           SolverWorkspace* ws, util::ThreadPool* pool) {
  const double switch_tol =
      std::max(opt.f32_switch_tolerance, opt.tolerance);
  util::LaneVector<float>& fcur = ws->iterate_f32();
  util::LaneVector<float>& fscaled = ws->scaled_f32();
  util::LaneVector<float>& fscaled_next = ws->scaled_next_f32();
  std::vector<float>& finv = ws->inv_out_f32();
  fcur.resize(n * k);
  fscaled.resize(n * k);
  fscaled_next.resize(n * k);
  kernel::InvOutDegreesF32(graph, &finv);
  for (uint64_t i = 0; i < n * k; ++i) {
    fcur[i] = static_cast<float>((*cur)[i]);
  }
  const std::vector<float> ffill = NarrowToF32(jumps.fill);
  const std::vector<float> frows = NarrowToF32(jumps.rows);
  const simd::LaneJumps<float> fjumps{ffill.data(), jumps.ids.data(),
                                      frows.data(), jumps.ids.size()};
  kernel::ScaleByInvOutDegreeF32(static_cast<uint32_t>(n), k, finv.data(),
                                 fcur.data(), fscaled.data(), pool);

  std::array<double, kernel::kMaxVectorsPerSweep> dangling{};
  std::array<double, kernel::kMaxVectorsPerSweep> diffs{};
  std::array<double, kernel::kMaxVectorsPerSweep> prev_diffs{};
  prev_diffs.fill(std::numeric_limits<double>::infinity());
  if (!redistribute) dangling.fill(0.0);

  int used = 0;
  // max_iterations − 1 budget: the float64 loop always gets ≥ 1 sweep.
  for (; used < opt.max_iterations - 1; ++used) {
    if (redistribute) {
      kernel::DanglingSumsF32(graph, k, fcur.data(),
                              &ws->dangling_partials(), dangling.data(),
                              pool);
    }
    kernel::WeightedJacobiSweepMultiF32(
        graph, k, fjumps, opt.damping, dangling.data(), finv.data(),
        fcur.data(), fscaled.data(), fcur.data(), fscaled_next.data(),
        &ws->node_partials(), diffs.data(), variant, pool);
    fscaled.swap(fscaled_next);
    SweepsCounter()->Increment();

    bool all_below = true;
    bool all_stalled = true;
    for (uint32_t j = 0; j < k; ++j) {
      PageRankResult& r = (*results)[j];
      r.iterations = used + 1;
      r.residual = diffs[j];
      if (opt.track_residuals) r.residual_history.push_back(diffs[j]);
      if (diffs[j] >= switch_tol) all_below = false;
      // A lane still shaving ≥ 1% off its residual per sweep is making
      // float32-worthy progress; once every lane stalls, float32 has done
      // all it can and the float64 phase takes over.
      if (diffs[j] < 0.99 * prev_diffs[j]) all_stalled = false;
      prev_diffs[j] = diffs[j];
    }
    if (all_below || all_stalled) {
      ++used;
      break;
    }
  }
  for (uint64_t i = 0; i < n * k; ++i) {
    (*cur)[i] = static_cast<double>(fcur[i]);
  }
  return used;
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
  kernel::LaneJumpTable<double> table = kernel::BuildLaneJumps(jumps);

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
  const kernel::SweepVariant variant = ResolveVariant(opt);
  std::array<double, kernel::kMaxVectorsPerSweep> dangling{};
  std::array<double, kernel::kMaxVectorsPerSweep> diffs{};

  std::vector<PageRankResult> results(k);
  // lane_ids[j] = index into `results` of in-flight lane j.
  std::vector<uint32_t> lane_ids(k);
  for (uint32_t j = 0; j < k; ++j) lane_ids[j] = j;

  // Mixed precision: burn down the bulk of the residual in float32 first;
  // the float64 loop below then starts at the pre-phase's iteration count.
  int start_iter = 0;
  if (opt.precision == SweepPrecision::kMixedF32) {
    start_iter = MixedPrecisionPrePhase(graph, k, n, opt, variant, redistribute,
                                        &cur, table, &results, ws, pool);
  }

  uint32_t live = k;
  // Seed the scaled iterate once; each sweep then emits next_scaled
  // alongside the new iterate (same values ScaleByInvOutDegree would
  // produce), so the full-pass rescale never runs again.
  kernel::ScaleByInvOutDegree(graph, live, cur.data(), scaled.data(), pool);
  if (!redistribute) dangling.fill(0.0);
  for (int i = start_iter; i < opt.max_iterations && live > 0; ++i) {
    if (redistribute) {
      kernel::DanglingSums(graph, live, cur.data(), &ws->dangling_partials(),
                           dangling.data(), pool);
    }
    kernel::WeightedJacobiSweepMulti(
        graph, live, table.View(), opt.damping, dangling.data(), cur.data(),
        scaled.data(), cur.data(), scaled_next.data(), &ws->node_partials(),
        diffs.data(), variant, pool);
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

/// Gauss-Seidel / SOR sweeps (omega == 1 is plain Gauss-Seidel). In-place
/// updates force a sequential sweep, but the inner gather still uses the
/// cached inverse out-degrees (multiply instead of divide) and the initial
/// dangling sum scans the cached dangling list.
PageRankResult SolveGaussSeidel(const WebGraph& graph, const JumpVector& jump,
                                const SolverOptions& opt, double omega,
                                SolverWorkspace* ws) {
  SPAMMASS_TRACE_SPAN("pagerank.solve", "method",
                      omega == 1.0 ? "gauss-seidel" : "sor");
  PageRankResult result;
  const std::vector<double> v = jump.ToDense();
  result.scores = v;
  std::vector<double>& p = result.scores;
  const double c = opt.damping;
  const auto inv_out = graph.InvOutDegrees();
  const bool redistribute =
      opt.dangling == DanglingPolicy::kRedistributeToJump;
  double dangling = redistribute ? DanglingSum(graph, p) : 0.0;
  for (int i = 0; i < opt.max_iterations; ++i) {
    double diff = 0;
    for (NodeId y = 0; y < graph.num_nodes(); ++y) {
      double in_sum = 0;
      for (NodeId x : graph.InNeighbors(y)) {
        in_sum += p[x] * inv_out[x];
      }
      const double vy = v[y];
      double next;
      if (redistribute) {
        const bool y_dangling = graph.IsDangling(y);
        // Exclude y's own (old) dangling contribution and solve the scalar
        // equation p_y = c·(in_sum + v_y·(D_excl + p_y·[y dangling])) +
        // (1−c)·v_y for p_y exactly.
        double d_excl = dangling - (y_dangling ? p[y] : 0.0);
        double numer = c * (in_sum + vy * d_excl) + (1.0 - c) * vy;
        if (y_dangling) {
          double denom = 1.0 - c * vy;
          next = denom > 0 ? numer / denom : numer;
          next = (1.0 - omega) * p[y] + omega * next;
          dangling = d_excl + next;
        } else {
          next = (1.0 - omega) * p[y] + omega * numer;
        }
      } else {
        next = (1.0 - omega) * p[y] +
               omega * (c * in_sum + (1.0 - c) * vy);
      }
      diff += std::abs(next - p[y]);
      p[y] = next;
    }
    result.iterations = i + 1;
    result.residual = diff;
    SweepsCounter()->Increment();
    if (opt.track_residuals) result.residual_history.push_back(diff);
    if (diff < opt.tolerance) {
      result.converged = true;
      break;
    }
  }
  ws->RecordSolve();
  SolvesCounter()->Increment();
  IterationsHistogram()->Observe(result.iterations);
  return result;
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
  const kernel::SweepVariant variant = ResolveVariant(opt);
  util::ThreadPool* pool = ws->EnsurePool(opt.num_threads);

  // Normalize the jump distribution: every entry divided by the
  // left-to-right sum of all n entries, which JumpVector::Norm computes.
  kernel::LaneJumpTable<double> v = kernel::BuildLaneJumps({&jump});
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
                                     variant, pool);
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
  if (options.method == Method::kSor &&
      (!(options.sor_omega > 0.0) || !(options.sor_omega < 2.0))) {
    return Status::InvalidArgument("sor_omega must lie in (0, 2)");
  }
  // Forcing a specific SIMD level demands host support; kAuto degrades
  // gracefully and kScalar always works. (Gauss-Seidel/SOR sweeps are
  // sequential and simply ignore the policy.)
  if (options.simd == SimdPolicy::kAvx2 &&
      !simd::IsSupported(simd::Level::kAvx2)) {
    return Status::InvalidArgument("simd policy avx2 forced on a host "
                                   "without AVX2+FMA support");
  }
  if (options.simd == SimdPolicy::kNeon &&
      !simd::IsSupported(simd::Level::kNeon)) {
    return Status::InvalidArgument(
        "simd policy neon forced on a non-AArch64 host");
  }
  if (options.precision == SweepPrecision::kMixedF32 &&
      options.method != Method::kJacobi) {
    return Status::InvalidArgument(
        "mixed-f32 precision requires the Jacobi method");
  }
  if (options.precision == SweepPrecision::kMixedF32 &&
      !(options.f32_switch_tolerance >= 0.0)) {
    return Status::InvalidArgument("f32_switch_tolerance must be >= 0");
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
    case Method::kGaussSeidel:
      return SolveGaussSeidel(graph, jump, options, /*omega=*/1.0, ws);
    case Method::kSor:
      return SolveGaussSeidel(graph, jump, options, options.sor_omega, ws);
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

Result<PageRankResult> ComputePageRank(const WebGraph& graph,
                                       const JumpVector& jump,
                                       const SolverOptions& options) {
  return ComputePageRank(graph, jump, options, nullptr);
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
    // Sequential-dependency methods: solve one at a time, still sharing
    // the workspace (pool + scratch reuse).
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

Result<PageRankResult> ComputeUniformPageRank(const WebGraph& graph,
                                              const SolverOptions& options) {
  return ComputeUniformPageRank(graph, options, nullptr);
}

}  // namespace spammass::pagerank
