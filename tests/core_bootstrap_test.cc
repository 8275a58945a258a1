// Tests of the Section 3.4 spam-core bootstrap.

#include "core/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "synth/generator.h"
#include "synth/paper_graphs.h"
#include "synth/scenario.h"
#include "util/logging.h"

namespace spammass {
namespace {

using core::BootstrapOptions;
using core::BootstrapSpamCore;
using graph::NodeId;

BootstrapOptions SmallGraphOptions() {
  BootstrapOptions options;
  options.mass.solver.tolerance = 1e-14;
  options.mass.solver.max_iterations = 3000;
  options.mass.scale_core_jump = false;
  options.seed_detector.scaled_pagerank_threshold = 1.5;
  options.seed_detector.relative_mass_threshold = 0.7;
  return options;
}

TEST(BootstrapTest, InvalidOptionsRejected) {
  auto fig = synth::MakeFigure2Graph();
  BootstrapOptions options = SmallGraphOptions();
  options.rounds = 0;
  EXPECT_FALSE(BootstrapSpamCore(fig.graph, fig.good_core, options).ok());
  options = SmallGraphOptions();
  options.combine_weight = 1.5;
  EXPECT_FALSE(BootstrapSpamCore(fig.graph, fig.good_core, options).ok());
}

TEST(BootstrapTest, FailsWhenNothingDetected) {
  auto fig = synth::MakeFigure2Graph();
  BootstrapOptions options = SmallGraphOptions();
  options.seed_detector.scaled_pagerank_threshold = 1e6;  // nothing passes
  auto r = BootstrapSpamCore(fig.graph, fig.good_core, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(BootstrapTest, HarvestsHighMassCandidatesOnFigure2) {
  auto fig = synth::MakeFigure2Graph();
  BootstrapOptions options = SmallGraphOptions();
  auto r = BootstrapSpamCore(fig.graph, fig.good_core, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // τ = 0.7 seeds with {x (m̃ 0.75), s0 (m̃ 1.0)} (detector order: by
  // descending relative mass).
  std::vector<NodeId> harvested = r.value().spam_core;
  std::sort(harvested.begin(), harvested.end());
  EXPECT_EQ(harvested, (std::vector<NodeId>{fig.x, fig.s0}));
  // Combined = average of good-core and spam-core estimates.
  for (size_t i = 0; i < r.value().combined.absolute_mass.size(); ++i) {
    EXPECT_NEAR(r.value().combined.absolute_mass[i],
                0.5 * (r.value().from_good_core.absolute_mass[i] +
                       r.value().from_spam_core.absolute_mass[i]),
                1e-12);
  }
}

TEST(BootstrapTest, CombinedLowersFalsePositiveMass) {
  // On Figure 2, the good-core estimate overstates g2's mass (0.69); the
  // harvested spam core {x, s0} contributes nothing to g2, so the combined
  // relative mass of the false positive drops.
  auto fig = synth::MakeFigure2Graph();
  auto r = BootstrapSpamCore(fig.graph, fig.good_core, SmallGraphOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().combined.relative_mass[fig.g2],
            r.value().from_good_core.relative_mass[fig.g2]);
  // While the true target stays clearly above the false positive (the
  // incomplete spam core dilutes both, but preserves the ordering).
  EXPECT_GT(r.value().combined.relative_mass[fig.x],
            r.value().combined.relative_mass[fig.g2] + 0.1);
  EXPECT_GT(r.value().combined.relative_mass[fig.x], 0.4);
}

TEST(BootstrapTest, SyntheticWebBootstrapImprovesAreaUnderCurve) {
  auto web = synth::GenerateWeb(synth::TinyScenario(13));
  CHECK_OK(web.status());
  BootstrapOptions options;
  options.mass.solver.tolerance = 1e-10;
  options.mass.gamma = 0.9;
  options.seed_detector.relative_mass_threshold = 0.99;
  options.seed_detector.scaled_pagerank_threshold = 10;
  auto r = BootstrapSpamCore(web.value().graph,
                             web.value().AssembledGoodCore(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().spam_core.empty());
  // The harvested core should be overwhelmingly true spam (high-precision
  // seeding is the point of τ = 0.99).
  uint64_t true_spam = 0;
  for (NodeId x : r.value().spam_core) {
    true_spam += web.value().labels.IsSpam(x);
  }
  EXPECT_GT(static_cast<double>(true_spam) / r.value().spam_core.size(),
            0.7);
}

TEST(BootstrapTest, MultipleRoundsRun) {
  auto fig = synth::MakeFigure2Graph();
  BootstrapOptions options = SmallGraphOptions();
  options.rounds = 3;
  auto r = BootstrapSpamCore(fig.graph, fig.good_core, options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().spam_core.empty());
}

}  // namespace
}  // namespace spammass
