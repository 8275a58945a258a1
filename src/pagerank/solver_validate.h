// Debug-mode invariant validation for PageRank inputs and solutions.
//
// The linear-system formulation (Eq. 3) comes with sharp analytic
// post-conditions: solutions are non-negative, total PageRank mass is
// bounded by the jump-vector norm under the leaking (substochastic) policy
// and conserved exactly under redistribution, and the mass decomposition
// p = p_core + p_residual (Section 4: spam mass M̃ = p − p′) must hold
// entrywise. Silent violations of any of these — the failure mode Vigna's
// "Stanford Matrix Considered Harmful" catalogs for published PageRank
// experiments — produce plausible-looking but wrong rankings, so the
// solvers re-verify them after every solve in debug builds (DCHECK_OK) and
// expose the checks here as a public Validate API for any build mode.

#ifndef SPAMMASS_PAGERANK_SOLVER_VALIDATE_H_
#define SPAMMASS_PAGERANK_SOLVER_VALIDATE_H_

#include <vector>

#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "util/status.h"

namespace spammass::pagerank {

/// Validates a raw jump-vector value array: every entry finite and
/// non-negative, and 0 < ‖v‖₁ ≤ 1 (+slack; Section 2.2 allows unnormalized
/// vectors up to norm 1). When `require_stochastic` is set the norm must
/// equal 1 within `tolerance` — the Eq. 3 regular-PageRank case where v is
/// a probability distribution.
util::Status ValidateJumpValues(const std::vector<double>& values,
                                bool require_stochastic = false,
                                double tolerance = 1e-9);

/// JumpVector convenience overload of ValidateJumpValues.
util::Status ValidateJumpVector(const JumpVector& jump,
                                bool require_stochastic = false,
                                double tolerance = 1e-9);

/// Post-conditions of a finished solve:
///   * dimension: scores.size() == graph.num_nodes() == jump.n(),
///   * every score finite and non-negative,
///   * mass conservation: under DanglingPolicy::kLeak the geometric-series
///     solution satisfies (1−c)‖v‖ ≤ ‖p‖₁ ≤ ‖v‖ (+slack); under
///     kRedistributeToJump a converged solution with a unit-norm jump
///     carries ‖p‖₁ = 1 exactly.
/// `tolerance` bounds the allowed conservation slack and is additionally
/// widened by the solver's convergence residual.
util::Status ValidateSolverResult(const graph::WebGraph& graph,
                                  const JumpVector& jump,
                                  const SolverOptions& options,
                                  const PageRankResult& result,
                                  double tolerance = 1e-9);

/// Verifies the Section 4 decomposition total = core_part + residual
/// entrywise within `tolerance` (all three indexed by node). Used by the
/// spam-mass estimators, where total = p, core_part = p′, residual = M̃.
util::Status ValidateMassDecomposition(const std::vector<double>& total,
                                       const std::vector<double>& core_part,
                                       const std::vector<double>& residual,
                                       double tolerance = 1e-9);

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_SOLVER_VALIDATE_H_
