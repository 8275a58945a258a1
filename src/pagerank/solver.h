// Linear PageRank solvers (Section 2.2 of the paper).
//
// The paper adopts the linear-system formulation
//     (I − cTᵀ) p = (1 − c) v                                   (Eq. 3)
// with the substochastic transition matrix T (dangling rows are zero), and
// solves it with the Jacobi method (Algorithm 1). This module implements:
//   * kJacobi       — Algorithm 1 verbatim,
//   * kGaussSeidel  — in-place sweeps; typically converges in fewer
//                     iterations than Jacobi (the paper cites Gauss-Seidel
//                     as a faster alternative),
//   * kPowerIteration — the classic eigensystem formulation (Eq. 1) on the
//                     fully stochasticized matrix T'', for comparison.
// Dangling handling is selectable: kLeak matches Eq. 3 exactly (dangling
// PageRank simply dissipates, only rescaling the solution), while
// kRedistributeToJump adds the d·vᵀ patch of T′ so the solution is the true
// random-walk stationary distribution.

#ifndef SPAMMASS_PAGERANK_SOLVER_H_
#define SPAMMASS_PAGERANK_SOLVER_H_

#include <string_view>
#include <vector>

#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/workspace.h"
#include "util/status.h"

namespace spammass::pagerank {

/// Iterative method selection. kSor is successive over-relaxation on the
/// Gauss-Seidel sweep (ω = 1 degenerates to plain Gauss-Seidel); for
/// PageRank systems mild over-relaxation (ω ≈ 1.1) typically shaves a few
/// sweeps, while under-relaxation damps oscillation on near-cyclic graphs.
enum class Method { kJacobi, kGaussSeidel, kSor, kPowerIteration };

/// Which sweep instruction set the Jacobi-family kernels may use. The
/// scalar default is the bit-exact reference; kAuto picks the best level
/// the host supports at runtime; forcing a level the host lacks fails
/// option validation. Gauss-Seidel/SOR sweeps are sequential and ignore
/// this.
enum class SimdPolicy { kScalar, kAuto, kAvx2, kNeon };

/// Lane-storage precision of the Jacobi sweep.
enum class SweepPrecision {
  /// float64 lanes throughout — the bit-exact reference.
  kFloat64,
  /// Mixed precision: float32 lanes (half the memory traffic) until the
  /// float64-measured residual clears f32_switch_tolerance or stops
  /// improving, then float64 lanes to the final tolerance. At least one
  /// full float64 refinement sweep always runs, and every residual —
  /// including those of float32 sweeps — is accumulated in float64, so
  /// convergence decisions never trust float32 arithmetic. Jacobi only.
  kMixedF32,
};

/// What to do with the PageRank that reaches a node without outlinks.
enum class DanglingPolicy {
  /// Let it dissipate — the linear system (3) with substochastic T. This is
  /// the paper's formulation; all paper examples (Table 1) use it.
  kLeak,
  /// Re-inject it through the jump distribution (the T′ = T + d·vᵀ patch).
  kRedistributeToJump,
};

/// Solver configuration.
struct SolverOptions {
  /// Damping factor c; the paper uses 0.85 throughout.
  double damping = 0.85;
  /// Convergence: stop when ‖p⁽ⁱ⁾ − p⁽ⁱ⁻¹⁾‖₁ < tolerance.
  double tolerance = 1e-12;
  /// Hard iteration cap.
  int max_iterations = 1000;
  Method method = Method::kJacobi;
  DanglingPolicy dangling = DanglingPolicy::kLeak;
  /// Relaxation factor for kSor; must lie in (0, 2). Ignored otherwise.
  double sor_omega = 1.1;
  /// Worker threads for the out-of-place sweeps (each output entry depends
  /// only on the previous iterate, so rows split cleanly). 1 = serial.
  /// kJacobi and kPowerIteration parallelize — with bit-identical scores
  /// AND residuals for every thread count (deterministic chunked
  /// reductions, pagerank/kernel.h); the sequential-dependency
  /// Gauss-Seidel/SOR sweeps ignore this.
  uint32_t num_threads = 1;
  /// When true, PageRankResult::residual_history records the L1 residual of
  /// every iteration (for convergence studies).
  bool track_residuals = false;
  /// Sweep instruction set (Jacobi/power-iteration kernels only). The
  /// scalar default keeps the bit-exact guarantee; vectorized sweeps
  /// preserve per-lane accumulation order but may differ by FMA
  /// contraction (validated against scalar by the variant tests).
  SimdPolicy simd = SimdPolicy::kScalar;
  /// Lane-storage precision of the Jacobi sweep (see SweepPrecision).
  SweepPrecision precision = SweepPrecision::kFloat64;
  /// Vestigial: the compressed gather was removed, so no sweep reads this
  /// and the solver rejects `true` as InvalidArgument. It stays only
  /// because perfbench/perfbench.cc still assigns it `false`; it goes when
  /// the next benchmark change drops that line.
  bool compressed_gather = false;
  /// Mixed-precision switch point: the float32 pre-phase hands over to
  /// float64 once every lane's residual drops below
  /// max(f32_switch_tolerance, tolerance). Near the float32 unit roundoff
  /// by default; raising it shifts work to the float64 phase.
  double f32_switch_tolerance = 1e-6;

  /// The solver configuration shared by the eval pipeline, the CLI
  /// defaults, and the paper-reproduction benches: Gauss-Seidel at 1e-10 /
  /// 400 iterations. Named so the three call sites cannot silently diverge.
  static SolverOptions BenchPreset();
};

/// Human-readable method name ("jacobi", "gauss-seidel", "sor",
/// "power-iteration") for manifests and CLI help.
const char* MethodToString(Method method);

/// Inverse of MethodToString. Fails with InvalidArgument on unknown names.
util::Result<Method> MethodFromString(std::string_view name);

/// Human-readable SIMD policy name ("scalar", "auto", "avx2", "neon").
const char* SimdPolicyToString(SimdPolicy policy);

/// Inverse of SimdPolicyToString. Fails with InvalidArgument on unknown
/// names.
util::Result<SimdPolicy> SimdPolicyFromString(std::string_view name);

/// Human-readable precision name ("f64", "mixed-f32").
const char* SweepPrecisionToString(SweepPrecision precision);

/// Inverse of SweepPrecisionToString. Fails with InvalidArgument on
/// unknown names.
util::Result<SweepPrecision> SweepPrecisionFromString(std::string_view name);

/// Solution plus convergence diagnostics.
struct PageRankResult {
  std::vector<double> scores;
  int iterations = 0;
  double residual = 0;
  bool converged = false;
  std::vector<double> residual_history;
};

/// Convergence telemetry of one solve, decoupled from the (large) score
/// vector so callers can keep it after the scores are consumed. In the
/// fused multi-RHS kernel each lane converges at its own iteration;
/// FromResult captures that per-lane count, and with
/// SolverOptions::track_residuals the full per-iteration residual curve.
/// Surfaced in the run manifest ("convergence", schema_version 2) and
/// plotted by tools/plot_convergence.py.
struct SolveStats {
  int iterations = 0;
  double residual = 0;
  bool converged = false;
  /// One L1 residual per iteration; empty unless track_residuals was set.
  std::vector<double> residual_curve;

  static SolveStats FromResult(const PageRankResult& result);
};

/// Solves PageRank for the given jump vector. Fails with InvalidArgument on
/// bad options (damping outside (0,1), empty graph, dimension mismatch, or
/// power iteration with an unnormalizable zero jump vector).
util::Result<PageRankResult> ComputePageRank(const graph::WebGraph& graph,
                                             const JumpVector& jump,
                                             const SolverOptions& options);

/// As above, reusing `workspace` for the thread pool and scratch buffers —
/// the fast path for repeated solves over one graph (workspace.h). A null
/// workspace falls back to per-call scratch. Results are bit-identical to
/// the workspace-free overload.
util::Result<PageRankResult> ComputePageRank(const graph::WebGraph& graph,
                                             const JumpVector& jump,
                                             const SolverOptions& options,
                                             SolverWorkspace* workspace);

/// Solves PageRank for several jump vectors over one graph. With
/// Method::kJacobi the solve is fused: up to kernel::kMaxVectorsPerSweep
/// vectors advance through ONE CSR traversal per sweep (multi-RHS), paying
/// the graph's memory traffic once instead of once per vector — the spam
/// mass p/p′ pair is the canonical k = 2 caller. Each vector converges
/// independently (a converged vector is compacted out of the working set
/// and stops costing sweeps), so results[j] is bit-identical to a
/// standalone ComputePageRank with jumps[j]. Other methods solve
/// sequentially through the shared workspace. Fails on the first invalid
/// jump vector.
util::Result<std::vector<PageRankResult>> ComputePageRankMulti(
    const graph::WebGraph& graph, const std::vector<JumpVector>& jumps,
    const SolverOptions& options, SolverWorkspace* workspace = nullptr);

/// Convenience: regular PageRank p = PR(v) with uniform v.
util::Result<PageRankResult> ComputeUniformPageRank(
    const graph::WebGraph& graph, const SolverOptions& options);

/// Workspace-reusing variant of ComputeUniformPageRank.
util::Result<PageRankResult> ComputeUniformPageRank(
    const graph::WebGraph& graph, const SolverOptions& options,
    SolverWorkspace* workspace);

/// Rescales scores by n/(1−c), the paper's presentation scaling under which
/// a node with no inlinks has score exactly 1 (Section 3.4).
std::vector<double> ScaledScores(const std::vector<double>& scores,
                                 double damping);

/// L1 norm of a score vector.
double L1Norm(const std::vector<double>& v);

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_SOLVER_H_
