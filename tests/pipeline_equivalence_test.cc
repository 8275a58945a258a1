// Regression guard for the pipeline port: the artifact-cache path (fused
// multi-RHS solves through PipelineContext) must produce BIT-IDENTICAL
// results to the direct seed implementation (core::EstimateSpamMass,
// pagerank::ComputeUniformPageRank) — not merely close. Exercised with
// Jacobi, the method the fused kernel serves, at 1 and 4 solver threads.

#include <gtest/gtest.h>

#include "core/spam_mass.h"
#include "pagerank/solver.h"
#include "pipeline/context.h"
#include "pipeline/graph_source.h"
#include "util/logging.h"

namespace spammass {
namespace {

struct Case {
  pagerank::Method method;
  uint32_t threads;
};

class PipelineEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineEquivalenceTest, MassEstimatesBitIdenticalToSeedPath) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.03, 17);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());

  pipeline::PipelineConfig config;
  config.solver.method = GetParam().method;
  config.solver.num_threads = GetParam().threads;
  config.gamma = 0.8;

  // Seed implementation: direct EstimateSpamMass.
  core::SpamMassOptions seed_options;
  seed_options.solver = config.solver;
  seed_options.gamma = config.gamma;
  seed_options.scale_core_jump = config.scale_core_jump;
  auto seed = core::EstimateSpamMass(loaded.value().graph(),
                                     loaded.value().good_core, seed_options);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();

  // Ported implementation: the shared context, with the TrustRank lane
  // fused alongside — an extra lane must not perturb the others.
  pipeline::PipelineContext context(loaded.value(), config);
  pipeline::ArtifactNeeds needs;
  needs.mass_estimates = true;
  needs.trustrank = true;
  ASSERT_TRUE(context.Prepare(needs).ok());
  const core::MassEstimates& ported = context.MassEstimates();

  ASSERT_EQ(ported.pagerank.size(), seed.value().pagerank.size());
  for (size_t i = 0; i < ported.pagerank.size(); ++i) {
    ASSERT_EQ(ported.pagerank[i], seed.value().pagerank[i]) << "node " << i;
    ASSERT_EQ(ported.core_pagerank[i], seed.value().core_pagerank[i])
        << "node " << i;
    ASSERT_EQ(ported.absolute_mass[i], seed.value().absolute_mass[i])
        << "node " << i;
    ASSERT_EQ(ported.relative_mass[i], seed.value().relative_mass[i])
        << "node " << i;
  }

  // Base PageRank equals the standalone solver too.
  auto standalone = pagerank::ComputeUniformPageRank(loaded.value().graph(),
                                                     config.solver);
  ASSERT_TRUE(standalone.ok());
  EXPECT_EQ(context.BasePageRank().iterations,
            standalone.value().iterations);
  for (size_t i = 0; i < standalone.value().scores.size(); ++i) {
    ASSERT_EQ(context.BasePageRank().scores[i],
              standalone.value().scores[i])
        << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndThreads, PipelineEquivalenceTest,
    ::testing::Values(Case{pagerank::Method::kJacobi, 1},
                      Case{pagerank::Method::kJacobi, 4}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "Jacobi" + std::to_string(info.param.threads) + "Threads";
    });

}  // namespace
}  // namespace spammass
