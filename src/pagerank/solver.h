// Linear PageRank solvers (Section 2.2 of the paper).
//
// The paper adopts the linear-system formulation
//     (I − cTᵀ) p = (1 − c) v                                   (Eq. 3)
// with the substochastic transition matrix T (dangling rows are zero), and
// solves it with the Jacobi method (Algorithm 1), the one method here.
// Dangling handling is selectable: kLeak matches Eq. 3 exactly (dangling
// PageRank simply dissipates, only rescaling the solution), while
// kRedistributeToJump adds the d·vᵀ patch of T′ so the solution is the true
// random-walk stationary distribution; with a unit-norm jump vector that is
// the eigenvector of the teleporting matrix T″ (Eq. 1), ‖p‖₁ = 1. Every
// solve sweeps in float64 through one kernel (kernel.h) whose AVX2 and
// scalar bodies give the same bits, so no option picks an instruction set
// or a lane precision.

#ifndef SPAMMASS_PAGERANK_SOLVER_H_
#define SPAMMASS_PAGERANK_SOLVER_H_

#include <vector>

#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/workspace.h"
#include "util/status.h"

namespace spammass::pagerank {

/// Vestigial: Jacobi is the only method, so no solve reads this. It stays
/// only because perfbench/perfbench.cc still assigns `kJacobi`; it goes
/// when the next benchmark change drops that line.
enum class Method { kJacobi };

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
  /// Vestigial, like `compressed_gather` below: see Method.
  Method method = Method::kJacobi;
  DanglingPolicy dangling = DanglingPolicy::kLeak;
  /// Worker threads for the sweeps (each output entry depends only on the
  /// previous iterate, so rows split cleanly). 1 = serial. Scores AND
  /// residuals are bit-identical for every thread count (deterministic
  /// chunked reductions, pagerank/kernel.h).
  uint32_t num_threads = 1;
  /// When true, PageRankResult::residual_history records the L1 residual of
  /// every iteration (for convergence studies).
  bool track_residuals = false;
  /// Vestigial: the compressed gather was removed, so no sweep reads this
  /// and the solver rejects `true` as InvalidArgument. It stays only
  /// because perfbench/perfbench.cc still assigns it `false`; it goes when
  /// the next benchmark change drops that line.
  bool compressed_gather = false;

  /// The solver configuration shared by the eval pipeline, the CLI
  /// defaults, and the paper-reproduction benches: Jacobi at 1e-8 /
  /// 400 iterations. Named so the three call sites cannot silently diverge.
  /// 1e-8 is the loosest decade at which no spam_mass, trustrank or Figure 5
  /// core-family verdict moves against a 1e-12 solve on any corpus of the
  /// tolerance matrix (EXPERIMENTS.md E17, bench_tolerance_verdicts).
  static SolverOptions BenchPreset();
};

/// Instruction set of the sweep body every solve runs on this host: "avx2"
/// when the kernel dispatches to the AVX2 body (pagerank/simd.h), otherwise
/// "scalar". Echoed by the run manifest as "sweep_isa".
const char* SweepIsa();

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
/// bad options (damping outside (0,1), empty graph, dimension mismatch, or a
/// jump vector norm outside (0, 1]). A non-null `workspace` lends its thread
/// pool and scratch buffers — the fast path for repeated solves over one
/// graph (workspace.h); null uses per-call scratch.
/// Results are bit-identical either way.
util::Result<PageRankResult> ComputePageRank(
    const graph::WebGraph& graph, const JumpVector& jump,
    const SolverOptions& options, SolverWorkspace* workspace = nullptr);

/// Solves PageRank for several jump vectors over one graph. The solve is
/// fused: up to kernel::kMaxVectorsPerSweep vectors advance through ONE CSR
/// traversal per sweep (multi-RHS), paying the graph's memory traffic once
/// instead of once per vector — the spam mass p/p′ pair is the canonical
/// k = 2 caller. Each vector converges independently (a converged vector is
/// compacted out of the working set and stops costing sweeps), so
/// results[j] is bit-identical to a standalone ComputePageRank with
/// jumps[j]. Fails on the first invalid jump vector.
util::Result<std::vector<PageRankResult>> ComputePageRankMulti(
    const graph::WebGraph& graph, const std::vector<JumpVector>& jumps,
    const SolverOptions& options, SolverWorkspace* workspace = nullptr);

/// Convenience: regular PageRank p = PR(v) with uniform v.
util::Result<PageRankResult> ComputeUniformPageRank(
    const graph::WebGraph& graph, const SolverOptions& options,
    SolverWorkspace* workspace = nullptr);

/// Rescales scores by n/(1−c), the paper's presentation scaling under which
/// a node with no inlinks has score exactly 1 (Section 3.4).
std::vector<double> ScaledScores(const std::vector<double>& scores,
                                 double damping);

/// L1 norm of a score vector.
double L1Norm(const std::vector<double>& v);

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_SOLVER_H_
