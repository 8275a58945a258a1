// Tests of the CSR WebGraph core.

#include "graph/web_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

TEST(WebGraphTest, EmptyGraph) {
  WebGraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(WebGraphTest, FromSortedEdges) {
  WebGraph g = WebGraph::FromSortedEdges(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_TRUE(g.IsDangling(1));
  EXPECT_FALSE(g.IsDangling(0));
}

TEST(WebGraphTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 3);
  b.AddEdge(2, 1);
  b.AddEdge(4, 1);
  WebGraph g = b.Build();
  auto out = g.OutNeighbors(0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  auto in = g.InNeighbors(1);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
}

TEST(WebGraphTest, HasEdge) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  WebGraph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(WebGraphTest, InOutDegreeSumsMatch) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(3, 2);
  b.AddEdge(4, 5);
  b.AddEdge(5, 0);
  WebGraph g = b.Build();
  uint64_t in_sum = 0, out_sum = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    in_sum += g.InDegree(x);
    out_sum += g.OutDegree(x);
  }
  EXPECT_EQ(in_sum, g.num_edges());
  EXPECT_EQ(out_sum, g.num_edges());
}

TEST(WebGraphTest, TransposeReversesEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 1);
  WebGraph g = b.Build();
  WebGraph t = g.Transposed();
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_TRUE(t.HasEdge(1, 0));
  EXPECT_TRUE(t.HasEdge(2, 1));
  EXPECT_TRUE(t.HasEdge(1, 3));
  EXPECT_FALSE(t.HasEdge(0, 1));
  // Double transpose is the identity.
  WebGraph tt = t.Transposed();
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    auto a = g.OutNeighbors(x);
    auto c = tt.OutNeighbors(x);
    ASSERT_EQ(a.size(), c.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin()));
  }
}

TEST(WebGraphTest, IsolatedNode) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  EXPECT_TRUE(g.IsIsolated(2));
  EXPECT_FALSE(g.IsIsolated(0));
  EXPECT_FALSE(g.IsIsolated(1));
}

TEST(WebGraphTest, DerivedArraysMatchDegrees) {
  // 0 -> {1, 2}, 2 -> {1}, 3 -> {0}; node 1 is dangling.
  WebGraph g = WebGraph::FromSortedEdges(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  ASSERT_EQ(g.InvOutDegrees().size(), 4u);
  EXPECT_EQ(g.InvOutDegree(0), 0.5);
  EXPECT_EQ(g.InvOutDegree(1), 0.0);  // dangling: exactly zero
  EXPECT_EQ(g.InvOutDegree(2), 1.0);
  EXPECT_EQ(g.InvOutDegree(3), 1.0);
  ASSERT_EQ(g.num_dangling(), 1u);
  EXPECT_EQ(g.DanglingNodes()[0], 1u);
}

TEST(WebGraphTest, DerivedArraysOnTransposedGraph) {
  WebGraph g = WebGraph::FromSortedEdges(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  WebGraph t = g.Transposed();
  // In the transpose, out-degrees are the original in-degrees: node 3 has
  // no inlinks in g, so it is dangling in t.
  ASSERT_EQ(t.num_dangling(), 1u);
  EXPECT_EQ(t.DanglingNodes()[0], 3u);
  EXPECT_EQ(t.InvOutDegree(1), 0.5);  // in-degree 2 in g
  EXPECT_EQ(t.InvOutDegree(3), 0.0);
}

/// A named graph with dangling and unlinked nodes in both directions.
WebGraph NamedSampleGraph() {
  WebGraph g = WebGraph::FromSortedEdges(
      7, {{0, 1}, {0, 2}, {0, 5}, {2, 1}, {3, 0}, {3, 2}, {5, 3}});
  g.set_host_names({"h0", "h1", "h2", "h3", "h4", "h5", "h6"});
  return g;
}

TEST(WebGraphTest, TransposeSharesTheCsrArrays) {
  WebGraph g = NamedSampleGraph();
  WebGraph t = g.Transposed();
  EXPECT_EQ(t.OutOffsets().data(), g.InOffsets().data());
  EXPECT_EQ(t.Targets().data(), g.Sources().data());
  EXPECT_EQ(t.InOffsets().data(), g.OutOffsets().data());
  EXPECT_EQ(t.Sources().data(), g.Targets().data());
  EXPECT_EQ(t.host_names().data(), g.host_names().data());
  // Only the reverse's derived arrays are its own.
  EXPECT_NE(t.InvOutDegrees().data(), g.InvOutDegrees().data());
  EXPECT_FALSE(t.is_mapped());
}

TEST(WebGraphTest, TransposeOfATemporaryStaysValid) {
  // The view shares the temporary's owner, so the arrays outlive it.
  WebGraph t = NamedSampleGraph().Transposed();
  EXPECT_EQ(t.num_edges(), 7u);
  EXPECT_TRUE(t.HasEdge(3, 5));
  EXPECT_TRUE(t.HasEdge(1, 2));
  EXPECT_EQ(t.InNeighbors(0).size(), 3u);
  EXPECT_EQ(t.HostName(6), "h6");
  WebGraph tt = NamedSampleGraph().Transposed().Transposed();
  EXPECT_TRUE(tt.HasEdge(5, 3));
  EXPECT_EQ(tt.InvOutDegree(0), 1.0 / 3);
}

TEST(WebGraphTest, TransposedViewMatchesAReversedBuild) {
  WebGraph g = NamedSampleGraph();
  std::vector<std::pair<NodeId, NodeId>> reversed;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : g.OutNeighbors(x)) reversed.emplace_back(y, x);
  }
  std::sort(reversed.begin(), reversed.end());
  WebGraph want = WebGraph::FromSortedEdges(g.num_nodes(), reversed);
  WebGraph t = g.Transposed();
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(same(t.OutOffsets(), want.OutOffsets()));
  EXPECT_TRUE(same(t.Targets(), want.Targets()));
  EXPECT_TRUE(same(t.InOffsets(), want.InOffsets()));
  EXPECT_TRUE(same(t.Sources(), want.Sources()));
  EXPECT_TRUE(same(t.DanglingNodes(), want.DanglingNodes()));
  ASSERT_EQ(t.InvOutDegrees().size(), want.InvOutDegrees().size());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(std::bit_cast<uint64_t>(t.InvOutDegree(x)),
              std::bit_cast<uint64_t>(want.InvOutDegree(x)))
        << "node " << x;
  }
  EXPECT_EQ(t.host_names(), g.host_names());
}

TEST(WebGraphTest, DanglingListIsAscendingAndComplete) {
  GraphBuilder b(8);
  b.AddEdge(1, 0);
  b.AddEdge(3, 2);
  b.AddEdge(6, 5);
  WebGraph g = b.Build();
  std::vector<NodeId> want;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (g.IsDangling(x)) want.push_back(x);
  }
  auto got = g.DanglingNodes();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(WebGraphTest, HostNames) {
  GraphBuilder b;
  NodeId a = b.AddNode("www.example.com");
  NodeId c = b.AddNode("www.stanford.edu");
  b.AddEdge(a, c);
  WebGraph g = b.Build();
  EXPECT_EQ(g.HostName(a), "www.example.com");
  EXPECT_EQ(g.HostName(c), "www.stanford.edu");
}

TEST(WebGraphTest, DefaultHostNames) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  EXPECT_EQ(g.HostName(0), "node0");
  EXPECT_EQ(g.HostName(1), "node1");
}

TEST(WebGraphDeathTest, SelfLoopInSortedEdgesAborts) {
  EXPECT_DEATH(WebGraph::FromSortedEdges(2, {{1, 1}}), "self-links");
}

TEST(WebGraphDeathTest, UnsortedEdgesAbort) {
  EXPECT_DEATH(WebGraph::FromSortedEdges(3, {{1, 2}, {0, 1}}), "sorted");
}

TEST(WebGraphDeathTest, DuplicateEdgesAbort) {
  EXPECT_DEATH(WebGraph::FromSortedEdges(3, {{0, 1}, {0, 1}}), "sorted");
}

}  // namespace
}  // namespace spammass
