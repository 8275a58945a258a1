// Node relabeling for the permutation-equivariance tests: a seeded random
// permutation and the graph rebuilt under it. PageRank, spam mass and the
// verdicts are properties of the graph, not of its node numbering, so a
// solve on the relabeled graph must agree with the original node for node.

#ifndef SPAMMASS_TESTS_RELABEL_H_
#define SPAMMASS_TESTS_RELABEL_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "util/random.h"

namespace spammass::testutil {

/// A uniformly random permutation of [0, n), fixed by `seed`.
inline std::vector<graph::NodeId> RandomPermutation(uint32_t n,
                                                    uint64_t seed) {
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  util::Rng rng(seed);
  util::Shuffle(&perm, &rng);
  return perm;
}

/// `g` with node x renamed perm[x]: every edge (u, v) becomes
/// (perm[u], perm[v]), and nothing else changes.
inline graph::WebGraph Relabel(const graph::WebGraph& g,
                               const std::vector<graph::NodeId>& perm) {
  graph::GraphBuilder builder(g.num_nodes());
  for (graph::NodeId x = 0; x < g.num_nodes(); ++x) {
    for (graph::NodeId y : g.OutNeighbors(x)) {
      builder.AddEdge(perm[x], perm[y]);
    }
  }
  return builder.Build();
}

}  // namespace spammass::testutil

#endif  // SPAMMASS_TESTS_RELABEL_H_
