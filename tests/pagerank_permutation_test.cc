// PageRank is permutation-equivariant: solving on a graph whose nodes are
// relabeled by a random permutation and reading each score back at its
// node's new id gives the original scores.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "relabel.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

WebGraph MakeGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    // Skewed sources, so in- and out-degrees differ across the graph.
    auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

TEST(ReorderTest, PageRankIsPermutationEquivariant) {
  WebGraph g = MakeGraph(500, 3000, /*seed=*/19);
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-12;

  auto base = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(base.ok());

  const std::vector<NodeId> perm =
      testutil::RandomPermutation(g.num_nodes(), /*seed=*/7);
  WebGraph permuted = testutil::Relabel(g, perm);
  ASSERT_EQ(permuted.num_edges(), g.num_edges());
  auto relabeled = pagerank::ComputeUniformPageRank(permuted, opt);
  ASSERT_TRUE(relabeled.ok());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    // Same mathematical system under relabeling; only the CSR traversal
    // order (and hence fp addition order) changes, so near-equality.
    EXPECT_NEAR(base.value().scores[x], relabeled.value().scores[perm[x]],
                1e-10)
        << "node " << x;
  }
}

}  // namespace
}  // namespace spammass
