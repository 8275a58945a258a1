// Tests of site-level aggregation (Section 2.1's granularity abstraction).

#include "graph/site_aggregation.h"

#include <gtest/gtest.h>

#include "core/spam_mass.h"
#include "graph/graph_builder.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/logging.h"

namespace spammass {
namespace {

using graph::AggregateToSites;
using graph::GraphBuilder;
using graph::NodeId;
using graph::RegisteredDomain;
using graph::WebGraph;

TEST(RegisteredDomainTest, GenericTlds) {
  EXPECT_EQ(RegisteredDomain("www.example.com"), "example.com");
  EXPECT_EQ(RegisteredDomain("a.b.c.example.com"), "example.com");
  EXPECT_EQ(RegisteredDomain("example.com"), "example.com");
  EXPECT_EQ(RegisteredDomain("cs.stanford.edu"), "stanford.edu");
}

TEST(RegisteredDomainTest, SecondLevelRegistries) {
  EXPECT_EQ(RegisteredDomain("www.example.co.uk"), "example.co.uk");
  EXPECT_EQ(RegisteredDomain("blog.shop.example.com.br"), "example.com.br");
  EXPECT_EQ(RegisteredDomain("example.co.uk"), "example.co.uk");
  // The registry suffix itself has no registrable part.
  EXPECT_EQ(RegisteredDomain("co.uk"), "co.uk");
}

TEST(RegisteredDomainTest, DegenerateNames) {
  EXPECT_EQ(RegisteredDomain("localhost"), "localhost");
  EXPECT_EQ(RegisteredDomain("x.y"), "x.y");
}

TEST(SiteAggregationTest, CollapsesHostsOfOneDomain) {
  GraphBuilder b;
  NodeId a = b.AddNode("www.shop.example");
  NodeId c = b.AddNode("blog.shop.example");
  NodeId d = b.AddNode("other.org");
  b.AddEdge(a, d);
  b.AddEdge(c, d);
  b.AddEdge(a, c);  // intra-site: must vanish
  WebGraph g = b.Build();
  auto sites = AggregateToSites(g);
  ASSERT_TRUE(sites.ok()) << sites.status().ToString();
  EXPECT_EQ(sites.value().graph.num_nodes(), 2u);
  EXPECT_EQ(sites.value().graph.num_edges(), 1u);  // shop.example -> other.org
  EXPECT_EQ(sites.value().to_site[a], sites.value().to_site[c]);
  EXPECT_EQ(sites.value().site_sizes[sites.value().to_site[a]], 2u);
  EXPECT_EQ(sites.value().graph.HostName(sites.value().to_site[a]),
            "shop.example");
}

TEST(SiteAggregationTest, RequiresHostNames) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  EXPECT_FALSE(AggregateToSites(g).ok());
}

TEST(SiteAggregationTest, EmptyGraph) {
  WebGraph g;
  auto sites = AggregateToSites(g);
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(sites.value().graph.num_nodes(), 0u);
}

TEST(SiteAggregationTest, SpamMassRunsUnchangedOnSiteGraph) {
  // Section 2.1's point: the method is granularity-agnostic. Aggregate a
  // synthetic host web to sites, map the good core through, and verify the
  // estimator still separates: spam sites get higher mean relative mass
  // than good sites.
  auto web = synth::GenerateWeb(synth::TinyScenario(31));
  CHECK_OK(web.status());
  auto sites = AggregateToSites(web.value().graph);
  ASSERT_TRUE(sites.ok());

  // A site is spam if any member host is spam; the site core contains
  // sites all of whose members are listed good hosts.
  const auto& s = sites.value();
  std::vector<bool> site_spam(s.graph.num_nodes(), false);
  std::vector<bool> site_core(s.graph.num_nodes(), true);
  for (NodeId h = 0; h < web.value().graph.num_nodes(); ++h) {
    if (web.value().labels.IsSpam(h)) site_spam[s.to_site[h]] = true;
    if (!web.value().listed[h]) site_core[s.to_site[h]] = false;
  }
  std::vector<NodeId> core;
  for (NodeId x = 0; x < s.graph.num_nodes(); ++x) {
    if (site_core[x] && !site_spam[x]) core.push_back(x);
  }
  ASSERT_FALSE(core.empty());

  core::SpamMassOptions options;
  options.solver.tolerance = 1e-10;
  options.gamma = 0.9;
  auto est = core::EstimateSpamMass(s.graph, core, options);
  ASSERT_TRUE(est.ok());
  const double scale = static_cast<double>(s.graph.num_nodes()) /
                       (1.0 - est.value().damping);
  double spam_sum = 0, good_sum = 0;
  uint64_t spam_n = 0, good_n = 0;
  for (NodeId x = 0; x < s.graph.num_nodes(); ++x) {
    if (est.value().pagerank[x] * scale < 10) continue;
    if (site_spam[x]) {
      spam_sum += est.value().relative_mass[x];
      ++spam_n;
    } else {
      good_sum += est.value().relative_mass[x];
      ++good_n;
    }
  }
  ASSERT_GT(spam_n, 0u);
  ASSERT_GT(good_n, 0u);
  EXPECT_GT(spam_sum / spam_n, good_sum / good_n + 0.2);
}

}  // namespace
}  // namespace spammass
