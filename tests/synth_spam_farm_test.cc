// Tests of spam-farm construction and the closed-form target PageRank.

#include "synth/spam_farm.h"

#include <gtest/gtest.h>

#include "pagerank/solver.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using synth::BuildSpamFarm;
using synth::FarmInfo;
using synth::FarmSpec;
using synth::LinkAllianceTargets;
using synth::PredictedTargetScaledPageRank;

TEST(SpamFarmTest, StructureWithRecirculation) {
  GraphBuilder b;
  util::Rng rng(1);
  FarmSpec spec;
  spec.num_boosters = 5;
  spec.target_links_back = true;
  FarmInfo farm = BuildSpamFarm(&b, spec, "target.spam", "booster", &rng);
  WebGraph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(farm.boosters.size(), 5u);
  for (NodeId booster : farm.boosters) {
    EXPECT_TRUE(g.HasEdge(booster, farm.target));
    EXPECT_TRUE(g.HasEdge(farm.target, booster));
  }
  EXPECT_EQ(g.HostName(farm.target), "target.spam");
  EXPECT_EQ(g.HostName(farm.boosters[0]), "booster0");
}

TEST(SpamFarmTest, StructureWithoutRecirculation) {
  GraphBuilder b;
  util::Rng rng(2);
  FarmSpec spec;
  spec.num_boosters = 4;
  spec.target_links_back = false;
  FarmInfo farm = BuildSpamFarm(&b, spec, "t", "b", &rng);
  WebGraph g = b.Build();
  EXPECT_TRUE(g.IsDangling(farm.target));
  EXPECT_EQ(g.num_edges(), 4u);
}

class FarmPageRankTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(FarmPageRankTest, TargetMatchesClosedForm) {
  auto [k, links_back] = GetParam();
  GraphBuilder b;
  util::Rng rng(3);
  FarmSpec spec;
  spec.num_boosters = k;
  spec.target_links_back = links_back;
  FarmInfo farm = BuildSpamFarm(&b, spec, "t", "b", &rng);
  WebGraph g = b.Build();

  pagerank::SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  auto pr = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(pr.ok());
  auto scaled = pagerank::ScaledScores(pr.value().scores, opt.damping);
  EXPECT_NEAR(scaled[farm.target],
              PredictedTargetScaledPageRank(k, opt.damping, links_back),
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FarmPageRankTest,
    ::testing::Combine(::testing::Values(1u, 5u, 20u, 100u),
                       ::testing::Bool()));

TEST(SpamFarmTest, RecirculationAmplifies) {
  // The optimal farm's 1/(1−c²) amplification (reference [8]).
  for (uint32_t k : {10u, 100u}) {
    double with = PredictedTargetScaledPageRank(k, 0.85, true);
    double without = PredictedTargetScaledPageRank(k, 0.85, false);
    EXPECT_NEAR(with / without, 1.0 / (1.0 - 0.85 * 0.85), 1e-12);
  }
}

TEST(SpamFarmTest, InterlinksAdded) {
  GraphBuilder b;
  util::Rng rng(5);
  FarmSpec spec;
  spec.num_boosters = 20;
  spec.interlink_prob = 0.5;
  FarmInfo farm = BuildSpamFarm(&b, spec, "t", "b", &rng);
  WebGraph g = b.Build();
  // 20 booster->target + 20 back + ~0.5 * 20 * 19 interlinks.
  EXPECT_GT(g.num_edges(), 40u + 100u);
}

TEST(SpamFarmTest, LargeFarmInterlinkSampling) {
  GraphBuilder b;
  util::Rng rng(6);
  FarmSpec spec;
  spec.num_boosters = 200;  // > 64 triggers the sampling path
  spec.interlink_prob = 0.001;
  FarmInfo farm = BuildSpamFarm(&b, spec, "t", "b", &rng);
  WebGraph g = b.Build();
  uint64_t base = 400;  // boosters + recirculation
  EXPECT_GT(g.num_edges(), base);
  EXPECT_LT(g.num_edges(), base + 200);  // ~40 expected interlinks
}

TEST(SpamFarmTest, AllianceRing) {
  GraphBuilder b(4);
  LinkAllianceTargets(&b, {0, 1, 2, 3});
  WebGraph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(3, 0));
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(SpamFarmTest, AllianceOfOneIsNoop) {
  GraphBuilder b(1);
  LinkAllianceTargets(&b, {0});
  WebGraph g = b.Build();
  EXPECT_EQ(g.num_edges(), 0u);
}


TEST(SpamFarmTest, CompleteAllianceLinksAllPairs) {
  GraphBuilder b(3);
  synth::LinkAllianceComplete(&b, {0, 1, 2});
  WebGraph g = b.Build();
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId c = 0; c < 3; ++c) {
      if (a != c) {
        EXPECT_TRUE(g.HasEdge(a, c));
      }
    }
  }
}

TEST(SpamFarmTest, CompleteAllianceBeatsRing) {
  // With more than two members, full interconnection boosts each target
  // more than the ring (each target receives |A|-1 donated links instead
  // of one).
  auto build = [](bool complete) {
    GraphBuilder b;
    util::Rng rng(9);
    std::vector<FarmInfo> farms;
    std::vector<NodeId> targets;
    for (int f = 0; f < 4; ++f) {
      FarmSpec spec;
      spec.num_boosters = 10;
      farms.push_back(BuildSpamFarm(&b, spec, util::StringPrintf("t%d", f),
                                    util::StringPrintf("b%d", f), &rng));
      targets.push_back(farms.back().target);
    }
    if (complete) {
      synth::LinkAllianceComplete(&b, targets);
    } else {
      LinkAllianceTargets(&b, targets);
    }
    WebGraph g = b.Build();
    pagerank::SolverOptions opt;
    opt.tolerance = 1e-14;
    opt.max_iterations = 5000;
    auto pr = pagerank::ComputeUniformPageRank(g, opt);
    CHECK_OK(pr.status());
    return pagerank::ScaledScores(pr.value().scores, opt.damping)[targets[0]];
  };
  EXPECT_GT(build(true), build(false));
}

TEST(SpamFarmTest, SharedBoostersLinkEveryTarget) {
  GraphBuilder b;
  util::Rng rng(10);
  FarmSpec spec;
  spec.num_boosters = 3;
  FarmInfo f1 = BuildSpamFarm(&b, spec, "t1", "b1-", &rng);
  FarmInfo f2 = BuildSpamFarm(&b, spec, "t2", "b2-", &rng);
  synth::ShareAllianceBoosters(&b, {&f1, &f2});
  WebGraph g = b.Build();
  for (NodeId booster : f1.boosters) {
    EXPECT_TRUE(g.HasEdge(booster, f2.target));
  }
  for (NodeId booster : f2.boosters) {
    EXPECT_TRUE(g.HasEdge(booster, f1.target));
  }
}

TEST(SpamFarmTest, SharedBoostersSplitTheBoost) {
  // Sharing k boosters across two targets halves each booster's per-target
  // contribution: both targets end up weaker than an unshared farm of the
  // same booster count, but the alliance ranks two targets for the price
  // of one farm's nodes.
  GraphBuilder solo_b;
  util::Rng rng(11);
  FarmSpec spec;
  spec.num_boosters = 12;
  spec.target_links_back = false;
  FarmInfo solo = BuildSpamFarm(&solo_b, spec, "t", "b", &rng);
  WebGraph solo_g = solo_b.Build();

  GraphBuilder shared_b;
  FarmInfo s1 = BuildSpamFarm(&shared_b, spec, "t1", "b1-", &rng);
  FarmInfo s2 = BuildSpamFarm(&shared_b, spec, "t2", "b2-", &rng);
  synth::ShareAllianceBoosters(&shared_b, {&s1, &s2});
  WebGraph shared_g = shared_b.Build();

  pagerank::SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  auto solo_pr = pagerank::ComputeUniformPageRank(solo_g, opt);
  auto shared_pr = pagerank::ComputeUniformPageRank(shared_g, opt);
  CHECK_OK(solo_pr.status());
  CHECK_OK(shared_pr.status());
  auto solo_scaled =
      pagerank::ScaledScores(solo_pr.value().scores, opt.damping);
  auto shared_scaled =
      pagerank::ScaledScores(shared_pr.value().scores, opt.damping);
  // Each shared target is fed by 24 boosters at weight 1/2 -> same
  // first-order boost as 12 dedicated boosters, so the scaled PageRanks
  // are close (slightly differing via n).
  EXPECT_NEAR(shared_scaled[s1.target], solo_scaled[solo.target], 0.5);
  EXPECT_NEAR(shared_scaled[s2.target], shared_scaled[s1.target], 1e-9);
}

TEST(SpamFarmTest, AllianceBoostsTargets) {
  // Two allied farms: each target's PageRank exceeds the isolated-farm
  // closed form because of the partner's donated link.
  GraphBuilder b;
  util::Rng rng(7);
  FarmSpec spec;
  spec.num_boosters = 10;
  FarmInfo f1 = BuildSpamFarm(&b, spec, "t1", "b1-", &rng);
  FarmInfo f2 = BuildSpamFarm(&b, spec, "t2", "b2-", &rng);
  LinkAllianceTargets(&b, {f1.target, f2.target});
  WebGraph g = b.Build();
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  auto pr = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(pr.ok());
  auto scaled = pagerank::ScaledScores(pr.value().scores, opt.damping);
  double isolated = PredictedTargetScaledPageRank(10, 0.85, true);
  EXPECT_GT(scaled[f1.target], isolated);
  EXPECT_GT(scaled[f2.target], isolated);
}

}  // namespace
}  // namespace spammass
