// Spam mass (Sections 3.3-3.5), the paper's central concept.
//
// For a partition {V⁺, V⁻} of the web, the absolute spam mass of node x is
// the PageRank contribution x receives from spam nodes, M_x = q_x^{V⁻}
// (Definition 1), and the relative mass is m_x = M_x / p_x (Definition 2).
// With only a good core Ṽ⁺ available, the paper estimates
//     M̃ = p − p′   and   m̃ = 1 − p′/p,                    (Definition 3)
// where p = PR(v) is regular PageRank and p′ = PR(w) is the core-based
// PageRank under the γ-scaled jump vector w of Section 3.5.

#ifndef SPAMMASS_CORE_SPAM_MASS_H_
#define SPAMMASS_CORE_SPAM_MASS_H_

#include <vector>

#include "core/labels.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "util/status.h"

namespace spammass::core {

/// Configuration for mass estimation.
struct SpamMassOptions {
  /// PageRank solver settings shared by both PageRank computations.
  pagerank::SolverOptions solver;
  /// Estimated fraction of good nodes on the web (γ, Section 3.5); the
  /// paper conservatively uses γ = 0.85 ("at least 15% of hosts are spam").
  double gamma = 0.85;
  /// When true (default), the core jump vector is scaled to ‖w‖ = γ
  /// (Section 3.5). When false, the raw v^Ṽ⁺ (1/n per member) is used —
  /// this reproduces the failed first attempt described in Section 4.3
  /// where ‖p′‖ ≪ ‖p‖ makes M̃ ≈ p, and exists for the ablation bench.
  bool scale_core_jump = true;
};

/// Output of spam mass estimation. All vectors are indexed by node and are
/// *unscaled* PageRank quantities; use pagerank::ScaledScores (factor
/// n/(1−c)) for paper-style presentation values.
struct MassEstimates {
  /// Regular PageRank p = PR(v), uniform v.
  std::vector<double> pagerank;
  /// Core-based PageRank p′ = PR(w).
  std::vector<double> core_pagerank;
  /// Estimated absolute mass M̃ = p − p′ (can be negative, Section 3.5).
  std::vector<double> absolute_mass;
  /// Estimated relative mass m̃ = 1 − p′/p ∈ (−∞, 1].
  std::vector<double> relative_mass;
  /// Damping used (needed to rescale for presentation).
  double damping = 0.85;
};

/// Derives MassEstimates from already-solved score vectors: p = PR(v) and
/// p′ = PR(w) computed elsewhere (e.g. by a fused multi-vector solve that
/// also carried unrelated jump vectors). Applies Definition 3 exactly as
/// EstimateSpamMass does — M̃ = p − p′, m̃ = 1 − p′/p — so the result is
/// bit-identical to EstimateSpamMass when fed the same scores.
MassEstimates MassEstimatesFromScores(std::vector<double> pagerank,
                                      std::vector<double> core_pagerank,
                                      double damping);

/// Estimates spam mass from a good core Ṽ⁺ (Definition 3 + Section 3.5).
/// Fails if the core is empty or references out-of-range nodes. The two
/// required solves (p = PR(v) and p′ = PR(w)) run as ONE fused multi-vector
/// Jacobi stream, paying the graph's memory traffic once per sweep instead
/// of twice. Pass a `workspace` to
/// additionally reuse the thread pool and scratch across repeated
/// estimates (eval loops, benches); null keeps per-call scratch.
util::Result<MassEstimates> EstimateSpamMass(const graph::WebGraph& graph,
                                             const std::vector<graph::NodeId>& good_core,
                                             const SpamMassOptions& options,
                                             pagerank::SolverWorkspace* workspace = nullptr);

/// Alternative estimator when a spam core Ṽ⁻ is available (Section 3.4):
/// M̂ = PR(v^Ṽ⁻). Returns absolute/relative estimates against the regular
/// PageRank.
util::Result<MassEstimates> EstimateSpamMassFromSpamCore(
    const graph::WebGraph& graph, const std::vector<graph::NodeId>& spam_core,
    const SpamMassOptions& options,
    pagerank::SolverWorkspace* workspace = nullptr);

/// Combines a good-core estimate and a spam-core estimate by (weighted)
/// averaging of the absolute masses, `weight` ∈ [0,1] on the good-core
/// side; relative masses are re-derived. (Section 3.4 suggests the simple
/// average, weight = 0.5.)
MassEstimates CombineEstimates(const MassEstimates& from_good_core,
                               const MassEstimates& from_spam_core,
                               double weight = 0.5);

/// Ground-truth spam mass per Definitions 1-2: M = q^{V⁻} where V⁻ is the
/// set of spam-labeled nodes (a spam node's contribution to itself
/// included). Used to validate the estimator on synthetic data (the paper's
/// Table 1 does exactly this on the Figure 2 graph).
util::Result<MassEstimates> ComputeActualSpamMass(
    const graph::WebGraph& graph, const LabelStore& labels,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace = nullptr);

}  // namespace spammass::core

#endif  // SPAMMASS_CORE_SPAM_MASS_H_
