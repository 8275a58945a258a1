// Tests of the canned scenario configurations.

#include "synth/scenario.h"

#include <gtest/gtest.h>

#include <string>

namespace spammass {
namespace {

using synth::TinyScenario;
using synth::WebModelConfig;
using synth::Yahoo2004Scenario;

TEST(ScenarioTest, DefaultValidates) {
  EXPECT_TRUE(Yahoo2004Scenario().Validate().ok());
  EXPECT_TRUE(TinyScenario().Validate().ok());
}

TEST(ScenarioTest, ContainsAnomalyArchetypes) {
  WebModelConfig cfg = Yahoo2004Scenario();
  bool has_isolated_with_hubs = false;
  bool has_isolated_without_hubs = false;
  bool has_poor_coverage = false;
  for (const auto& r : cfg.regions) {
    if (r.isolated_community && r.num_hubs > 0) has_isolated_with_hubs = true;
    if (r.isolated_community && r.num_hubs == 0) {
      has_isolated_without_hubs = true;
    }
    if (!r.isolated_community && r.core_coverage < 0.1) {
      has_poor_coverage = true;
    }
  }
  EXPECT_TRUE(has_isolated_with_hubs);     // Alibaba archetype
  EXPECT_TRUE(has_isolated_without_hubs);  // Brazilian-blog archetype
  EXPECT_TRUE(has_poor_coverage);          // Polish archetype
}

TEST(ScenarioTest, ScaleMultipliesPopulations) {
  WebModelConfig full = Yahoo2004Scenario(1.0);
  WebModelConfig half = Yahoo2004Scenario(0.5);
  uint64_t full_hosts = 0, half_hosts = 0;
  for (const auto& r : full.regions) full_hosts += r.num_hosts;
  for (const auto& r : half.regions) half_hosts += r.num_hosts;
  EXPECT_NEAR(static_cast<double>(half_hosts) / full_hosts, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(half.spam.num_farms) / full.spam.num_farms,
              0.5, 0.01);
}

TEST(ScenarioTest, StructuralTargetsMatchPaper) {
  WebModelConfig cfg = Yahoo2004Scenario();
  // The good-web dangling share is set above the paper's 66.4% because
  // spam nodes (which almost always link) dilute the graph-wide fraction
  // back down to the paper's value; the generator test asserts the final
  // graph-wide fractions.
  EXPECT_GT(cfg.no_outlink_fraction, 0.664);
  EXPECT_LT(cfg.no_outlink_fraction, 0.85);
  EXPECT_GT(cfg.spam.num_farms, 100u);
  EXPECT_GT(cfg.num_isolated_cliques, 0u);
  EXPECT_GT(cfg.spam.num_expired_domain_targets, 0u);
}

TEST(ScenarioTest, ParseScaleAcceptsFinitePositiveScales) {
  for (const char* text : {"0.05", "10", "1e-3", "71582"}) {
    auto scale = synth::ParseScenarioScale("--scale", text);
    ASSERT_TRUE(scale.ok()) << text << ": " << scale.status().message();
    EXPECT_EQ(scale.value(), std::stod(text));
  }
}

TEST(ScenarioTest, ParseScaleRefusesBadScalesNamingTheInput) {
  // 71583 * 60000 hosts in the largest region no longer fit a NodeId.
  for (const char* text : {"", "abc", "0.01x", " 1", "0", "-0", "-1", "nan",
                           "inf", "-inf", "71583", "1e300"}) {
    auto scale = synth::ParseScenarioScale("--scale", text);
    ASSERT_FALSE(scale.ok()) << text;
    EXPECT_EQ(scale.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(scale.status().message().rfind("--scale: scale '", 0), 0u)
        << scale.status().message();
    EXPECT_NE(scale.status().message().find(std::string("'") + text + "'"),
              std::string::npos)
        << scale.status().message();
  }
}

TEST(ScenarioTest, SeedIsPropagated) {
  EXPECT_EQ(Yahoo2004Scenario(1.0, 123).seed, 123u);
}

}  // namespace
}  // namespace spammass
