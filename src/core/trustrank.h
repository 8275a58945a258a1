// TrustRank (Gyöngyi, Garcia-Molina, Pedersen, VLDB 2004) — the paper's
// predecessor and the natural baseline (Section 5 discusses how spam mass
// complements it). TrustRank propagates trust from a small, high-quality
// seed of good pages via a biased PageRank; pages with low trust relative
// to their PageRank are *demoted*, but — unlike spam mass — spam is never
// explicitly *detected*.

#ifndef SPAMMASS_CORE_TRUSTRANK_H_
#define SPAMMASS_CORE_TRUSTRANK_H_

#include <optional>
#include <vector>

#include "core/labels.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "util/status.h"

namespace spammass::core {

/// TrustRank configuration.
struct TrustRankOptions {
  pagerank::SolverOptions solver;
  /// Size of the seed set selected by inverse PageRank.
  uint32_t seed_candidates = 50;
  /// Seeds whose oracle label is not good are discarded (the TrustRank
  /// paper has a human oracle inspect the candidate seeds).
  bool filter_seeds_by_oracle = true;
};

/// How well the inverse-PageRank solve separates the K seed candidates
/// from the rest. The candidate set is the exact solution's top K
/// whenever gap > bound: the true score difference of any pair across the
/// cut is at least gap − (|e_a| + |e_b|) ≥ gap − ‖e‖₁.
struct SeedMargin {
  /// Score of the K-th ranked candidate minus that of the (K+1)-th.
  double gap = 0;
  /// Jacobi a-posteriori bound c/(1−c)·r on the L1 error ‖e‖₁ of the
  /// scores, where r is the solve's final residual ‖p_k − p_{k−1}‖₁.
  double bound = 0;
};

/// Result of a TrustRank computation.
struct TrustRankResult {
  /// Seeds that survived oracle filtering (the jump targets).
  std::vector<graph::NodeId> seeds;
  /// Trust scores t = PR(v_seed) with ‖v_seed‖ = 1 over the seeds.
  std::vector<double> trust;
  /// The seed cut's margin (SeedSelection::margin).
  std::optional<SeedMargin> seed_margin;
};

/// TrustRank seeds plus the inverse-PageRank solve that ranked them.
struct SeedSelection {
  /// Candidates that survived the oracle filter, best-ranked first.
  std::vector<graph::NodeId> seeds;
  /// PageRank of the transposed graph (its convergence reaches the run
  /// manifest as the "trustrank_seed_selection" solve).
  pagerank::PageRankResult inverse_pagerank;
  /// Set when the graph has more than `candidates` nodes, so a cut exists.
  std::optional<SeedMargin> margin;
};

/// Selects seed candidates by inverse PageRank — PageRank on the transposed
/// graph — so that seeds are pages from which many pages are quickly
/// reachable: the top `candidates` nodes (clamped to n), ties broken by
/// lower id. A non-null `oracle` then keeps only the candidates it labels
/// good (the TrustRank paper has a human oracle inspect them); a null one
/// keeps them all. Fails with FailedPrecondition when the oracle rejects
/// every candidate. The margin is taken before the oracle filter.
util::Result<SeedSelection> SelectTrustRankSeeds(
    const graph::WebGraph& graph, uint32_t candidates,
    const LabelStore* oracle, const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace = nullptr);

/// Computes TrustRank with the given explicit seed set: a biased PageRank
/// whose random jump is uniform over the seeds with total mass 1.
util::Result<std::vector<double>> ComputeTrustRank(
    const graph::WebGraph& graph, const std::vector<graph::NodeId>& seeds,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace = nullptr);

/// Full pipeline: SelectTrustRankSeeds (with `labels` as the oracle when
/// options.filter_seeds_by_oracle is set), then trust propagation. The two
/// PageRank solves (inverse and forward) share one solver workspace — pass
/// `workspace` to extend the reuse across repeated TrustRank runs.
util::Result<TrustRankResult> RunTrustRank(const graph::WebGraph& graph,
                                           const LabelStore& labels,
                                           const TrustRankOptions& options,
                                           pagerank::SolverWorkspace* workspace = nullptr);

/// Demotion-style ranking signal: orders nodes by trust (descending).
/// Spam-mass detection can be compared against "everything below trust
/// percentile q is demoted".
std::vector<graph::NodeId> RankByTrust(const std::vector<double>& trust);

}  // namespace spammass::core

#endif  // SPAMMASS_CORE_TRUSTRANK_H_
