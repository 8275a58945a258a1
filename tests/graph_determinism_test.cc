// Determinism regression tests for the two graph transforms that hold
// std::unordered_map state (site_aggregation.cc, host_normalize.cc). Both
// maps are point-lookup tables only — output node ids must follow
// first-encounter order over the input node ids, never hash-bucket order —
// and the spammass_lint `unordered-iteration` rule keeps it that way. These
// tests pin the observable contract so a rewrite that starts iterating the
// maps fails here, not just in the linter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/host_normalize.h"
#include "graph/site_aggregation.h"
#include "graph/web_graph.h"
#include "util/string_util.h"

namespace spammass {
namespace {

using graph::AggregateToSites;
using graph::GraphBuilder;
using graph::HostNormalizeOptions;
using graph::MergeHostAliases;
using graph::NodeId;
using graph::WebGraph;

// Enough distinct keys that a hash-bucket traversal of the intermediate
// map would almost surely visit them in some order other than insertion.
constexpr int kDomains = 64;

WebGraph BuildTwoHostsPerDomainGraph() {
  GraphBuilder b;
  // Interleave the two hosts of each domain: a.d0, b.d0, a.d1, b.d1, ...
  for (int i = 0; i < kDomains; ++i) {
    NodeId a = b.AddNode(util::StringPrintf("a.d%d.com", i));
    NodeId c = b.AddNode(util::StringPrintf("b.d%d.com", i));
    if (i > 0) b.AddEdge(a, 0);
    b.AddEdge(c, a);  // intra-site: vanishes in the site graph
  }
  return b.Build();
}

TEST(SiteAggregationDeterminismTest, SiteIdsFollowFirstEncounterOrder) {
  WebGraph g = BuildTwoHostsPerDomainGraph();
  auto sites = AggregateToSites(g);
  ASSERT_TRUE(sites.ok()) << sites.status().ToString();
  ASSERT_EQ(sites.value().graph.num_nodes(),
            static_cast<uint64_t>(kDomains));
  for (int i = 0; i < kDomains; ++i) {
    // Domain d<i>.com is first encountered at host node 2*i, so it must
    // become site node i regardless of where it hashes.
    EXPECT_EQ(sites.value().to_site[2 * i], static_cast<NodeId>(i));
    EXPECT_EQ(sites.value().to_site[2 * i + 1], static_cast<NodeId>(i));
    EXPECT_EQ(sites.value().graph.HostName(i),
              util::StringPrintf("d%d.com", i));
  }
}

TEST(SiteAggregationDeterminismTest, RepeatedRunsAreBitIdentical) {
  WebGraph g = BuildTwoHostsPerDomainGraph();
  auto first = AggregateToSites(g);
  auto second = AggregateToSites(g);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().to_site, second.value().to_site);
  EXPECT_EQ(first.value().site_sizes, second.value().site_sizes);
  ASSERT_EQ(first.value().graph.num_nodes(), second.value().graph.num_nodes());
  ASSERT_EQ(first.value().graph.num_edges(), second.value().graph.num_edges());
  for (NodeId u = 0; u < first.value().graph.num_nodes(); ++u) {
    EXPECT_EQ(first.value().graph.HostName(u),
              second.value().graph.HostName(u));
    auto a = first.value().graph.OutNeighbors(u);
    auto b = second.value().graph.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST(HostNormalizeDeterminismTest, MergedIdsFollowFirstEncounterOrder) {
  GraphBuilder b;
  // www.h<i>.com followed by h<i>.com: each pair merges into one node whose
  // canonical name is first encountered at input node 2*i.
  for (int i = 0; i < kDomains; ++i) {
    b.AddNode(util::StringPrintf("www.h%d.com", i));
    b.AddNode(util::StringPrintf("h%d.com", i));
  }
  WebGraph g = b.Build();
  auto merged = MergeHostAliases(g, HostNormalizeOptions{});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().graph.num_nodes(),
            static_cast<uint64_t>(kDomains));
  EXPECT_EQ(merged.value().merged_groups, static_cast<uint64_t>(kDomains));
  for (int i = 0; i < kDomains; ++i) {
    EXPECT_EQ(merged.value().to_merged[2 * i], static_cast<NodeId>(i));
    EXPECT_EQ(merged.value().to_merged[2 * i + 1], static_cast<NodeId>(i));
    EXPECT_EQ(merged.value().graph.HostName(i),
              util::StringPrintf("h%d.com", i));
  }
}

TEST(HostNormalizeDeterminismTest, RepeatedRunsAreBitIdentical) {
  GraphBuilder b;
  for (int i = 0; i < kDomains; ++i) {
    b.AddNode(util::StringPrintf("WWW.Mixed%d.Org:80", i));
    b.AddNode(util::StringPrintf("mixed%d.org", i));
  }
  WebGraph g = b.Build();
  auto first = MergeHostAliases(g, HostNormalizeOptions{});
  auto second = MergeHostAliases(g, HostNormalizeOptions{});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().to_merged, second.value().to_merged);
  EXPECT_EQ(first.value().merged_groups, second.value().merged_groups);
  ASSERT_EQ(first.value().graph.num_nodes(), second.value().graph.num_nodes());
  for (NodeId u = 0; u < first.value().graph.num_nodes(); ++u) {
    EXPECT_EQ(first.value().graph.HostName(u),
              second.value().graph.HostName(u));
  }
}

}  // namespace
}  // namespace spammass
