#include "core/trustrank.h"

#include <algorithm>
#include <numeric>

#include "pagerank/jump_vector.h"
#include "util/logging.h"

namespace spammass::core {

using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using util::Result;
using util::Status;

Result<SeedSelection> SelectTrustRankSeeds(
    const WebGraph& graph, uint32_t candidates, const LabelStore* oracle,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  WebGraph reversed = graph.Transposed();
  auto pr = pagerank::ComputeUniformPageRank(reversed, solver, workspace);
  if (!pr.ok()) return pr.status();
  SeedSelection selection;
  selection.inverse_pagerank = std::move(pr.value());
  const std::vector<double>& scores = selection.inverse_pagerank.scores;
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  uint32_t take = std::min<uint32_t>(candidates, graph.num_nodes());
  // One rank past the cut, when there is one, for the margin.
  const bool has_cut = take > 0 && take < graph.num_nodes();
  std::partial_sort(order.begin(), order.begin() + take + (has_cut ? 1 : 0),
                    order.end(), [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  if (has_cut) {
    const double c = solver.damping;
    selection.margin = SeedMargin{
        scores[order[take - 1]] - scores[order[take]],
        c / (1.0 - c) * selection.inverse_pagerank.residual};
  }
  order.resize(take);
  for (NodeId s : order) {
    if (oracle == nullptr || oracle->IsGood(s)) selection.seeds.push_back(s);
  }
  if (selection.seeds.empty()) {
    return Status::FailedPrecondition(
        "oracle rejected every seed candidate; enlarge seed_candidates");
  }
  return selection;
}

Result<std::vector<double>> ComputeTrustRank(
    const WebGraph& graph, const std::vector<NodeId>& seeds,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace) {
  if (seeds.empty()) {
    return Status::InvalidArgument("TrustRank needs a non-empty seed set");
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::InvalidArgument("seed node id out of range");
    }
  }
  // Uniform jump over the seeds with total mass 1.
  JumpVector v = JumpVector::ScaledCore(graph.num_nodes(), seeds, 1.0);
  auto pr = pagerank::ComputePageRank(graph, v, solver, workspace);
  if (!pr.ok()) return pr.status();
  return std::move(pr.value().scores);
}

Result<TrustRankResult> RunTrustRank(const WebGraph& graph,
                                     const LabelStore& labels,
                                     const TrustRankOptions& options,
                                     pagerank::SolverWorkspace* workspace) {
  if (labels.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument("label store does not match the graph");
  }
  // One workspace (pool + scratch) backs both the inverse-PageRank seed
  // solve and the forward trust solve; workspaces are graph-agnostic, so
  // the transposed and forward graphs can share it.
  pagerank::SolverWorkspace local;
  pagerank::SolverWorkspace* ws = workspace != nullptr ? workspace : &local;
  auto selection = SelectTrustRankSeeds(
      graph, options.seed_candidates,
      options.filter_seeds_by_oracle ? &labels : nullptr, options.solver, ws);
  if (!selection.ok()) return selection.status();

  TrustRankResult result;
  result.seeds = std::move(selection.value().seeds);
  result.seed_margin = selection.value().margin;
  auto trust = ComputeTrustRank(graph, result.seeds, options.solver, ws);
  if (!trust.ok()) return trust.status();
  result.trust = std::move(trust.value());
  return result;
}

std::vector<NodeId> RankByTrust(const std::vector<double>& trust) {
  std::vector<NodeId> order(trust.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&trust](NodeId a, NodeId b) {
    return trust[a] > trust[b];
  });
  return order;
}

}  // namespace spammass::core
