#include "pagerank/solver_validate.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace spammass::pagerank {

using util::Status;

Status ValidateJumpValues(const std::vector<double>& values,
                          bool require_stochastic, double tolerance) {
  if (values.empty()) {
    return Status::FailedPrecondition("jump vector is empty");
  }
  double norm = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (!std::isfinite(v)) {
      return Status::FailedPrecondition(
          "jump vector entry " + std::to_string(i) + " is not finite");
    }
    if (v < 0.0) {
      return Status::FailedPrecondition(
          "jump vector entry " + std::to_string(i) + " is negative (" +
          std::to_string(v) + ")");
    }
    norm += v;
  }
  if (norm <= 0.0) {
    return Status::FailedPrecondition("jump vector norm is zero");
  }
  if (norm > 1.0 + tolerance) {
    return Status::FailedPrecondition(
        "jump vector norm " + std::to_string(norm) +
        " exceeds 1 (Section 2.2 requires 0 < ||v|| <= 1)");
  }
  if (require_stochastic && std::abs(norm - 1.0) > tolerance) {
    return Status::FailedPrecondition(
        "jump vector is not stochastic: ||v|| = " + std::to_string(norm) +
        " but a probability distribution (Eq. 3 regular PageRank) was "
        "required");
  }
  return Status::OK();
}

Status ValidateJumpVector(const JumpVector& jump, bool require_stochastic,
                          double tolerance) {
  return ValidateJumpValues(jump.ToDense(), require_stochastic, tolerance);
}

Status ValidateSolverResult(const graph::WebGraph& graph,
                            const JumpVector& jump,
                            const SolverOptions& options,
                            const PageRankResult& result, double tolerance) {
  const size_t n = graph.num_nodes();
  if (result.scores.size() != n) {
    return Status::FailedPrecondition(
        "solution has " + std::to_string(result.scores.size()) +
        " scores for " + std::to_string(n) + " nodes");
  }
  if (jump.n() != n) {
    return Status::FailedPrecondition("jump vector dimension mismatch");
  }

  // Unconverged iterates can sit slightly outside the analytic bounds;
  // widen the acceptance band by the final residual.
  const double slack = tolerance + result.residual;

  double mass = 0;
  for (size_t i = 0; i < n; ++i) {
    const double p = result.scores[i];
    if (!std::isfinite(p)) {
      return Status::FailedPrecondition(
          "score " + std::to_string(i) + " is not finite");
    }
    if (p < -slack) {
      return Status::FailedPrecondition(
          "score " + std::to_string(i) + " is negative (" + std::to_string(p) +
          "); PageRank solutions are non-negative");
    }
    mass += p;
  }

  // Mass conservation. The geometric-series solution of Eq. 3 satisfies
  // (1−c)||v|| ≤ ||p||₁ ≤ ||v|| for every dangling policy (the transition
  // matrix never amplifies L1 mass); power iteration explicitly normalizes
  // to ||p||₁ = 1.
  const double c = options.damping;
  const double vnorm =
      options.method == Method::kPowerIteration ? 1.0 : jump.Norm();
  if (mass > vnorm + slack) {
    return Status::FailedPrecondition(
        "total PageRank mass " + std::to_string(mass) +
        " exceeds the jump-vector norm " + std::to_string(vnorm) +
        "; mass is never created (Eq. 3)");
  }
  if (mass < (1.0 - c) * vnorm - slack) {
    return Status::FailedPrecondition(
        "total PageRank mass " + std::to_string(mass) +
        " fell below the teleportation floor (1-c)||v|| = " +
        std::to_string((1.0 - c) * vnorm));
  }
  if (options.method == Method::kPowerIteration &&
      std::abs(mass - 1.0) > slack) {
    return Status::FailedPrecondition(
        "power-iteration solution has mass " + std::to_string(mass) +
        " != 1 despite explicit normalization");
  }
  if (options.dangling == DanglingPolicy::kRedistributeToJump &&
      result.converged && std::abs(jump.Norm() - 1.0) <= tolerance &&
      std::abs(mass - 1.0) > slack) {
    return Status::FailedPrecondition(
        "redistributing solver converged with mass " + std::to_string(mass) +
        " != 1; a stochastic jump vector conserves mass exactly");
  }
  return Status::OK();
}

Status ValidateMassDecomposition(const std::vector<double>& total,
                                 const std::vector<double>& core_part,
                                 const std::vector<double>& residual,
                                 double tolerance) {
  if (core_part.size() != total.size() || residual.size() != total.size()) {
    return Status::FailedPrecondition(
        "mass decomposition sizes disagree: p has " +
        std::to_string(total.size()) + ", p_core " +
        std::to_string(core_part.size()) + ", residual " +
        std::to_string(residual.size()));
  }
  for (size_t i = 0; i < total.size(); ++i) {
    // Entrywise p = p_core + p_residual (Section 4); scale the tolerance by
    // the magnitudes involved so large graphs do not trip rounding noise.
    const double lhs = total[i];
    const double rhs = core_part[i] + residual[i];
    const double scale =
        std::max({1.0, std::abs(lhs), std::abs(core_part[i]),
                  std::abs(residual[i])});
    if (std::abs(lhs - rhs) > tolerance * scale) {
      return Status::FailedPrecondition(
          "mass decomposition violated at node " + std::to_string(i) +
          ": p = " + std::to_string(lhs) + " but p_core + residual = " +
          std::to_string(rhs));
    }
  }
  return Status::OK();
}

}  // namespace spammass::pagerank
