// End-to-end body equivalence: the Figure-4-style detection outcome —
// who is flagged, which candidates surface, their ordering, their masses —
// must be bitwise the same whether the sweeps run the AVX2 body or the
// scalar one, because the instruction set is not a model change.
// Also the permutation-invariance property test: spam mass and relative
// mass are invariant under a random node permutation at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/spam_mass.h"
#include "pagerank/simd.h"
#include "pagerank/solver.h"
#include "pipeline/context.h"
#include "pipeline/graph_source.h"
#include "pipeline/pipeline.h"
#include "relabel.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::WebGraph;
namespace simd = pagerank::simd;

pipeline::PipelineConfig BaseConfig() {
  pipeline::PipelineConfig config;
  config.solver.tolerance = 1e-12;
  config.solver.max_iterations = 500;
  return config;
}

util::Result<pipeline::PipelineRun> RunScenario(
    const pipeline::PipelineConfig& config) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.03, 17);
  // spam_mass only: its verdicts are threshold tests with a margin this
  // suite asserts, so exact equality across variants is well-defined.
  // Rank-cutoff detectors (TrustRank demotion) can legitimately flip on
  // tolerance-level score differences and are out of scope here.
  return pipeline::RunDetectors(source, config, {"spam_mass"});
}

void ExpectSameVerdicts(const pipeline::PipelineRun& want,
                        const pipeline::PipelineRun& got,
                        const std::string& label) {
  ASSERT_EQ(want.detectors.size(), got.detectors.size()) << label;
  for (size_t d = 0; d < want.detectors.size(); ++d) {
    const pipeline::DetectorOutput& a = want.detectors[d];
    const pipeline::DetectorOutput& b = got.detectors[d];
    EXPECT_EQ(a.detector, b.detector) << label;
    EXPECT_EQ(a.flagged_count, b.flagged_count) << label;
    ASSERT_EQ(a.flagged.size(), b.flagged.size()) << label;
    for (size_t x = 0; x < a.flagged.size(); ++x) {
      EXPECT_EQ(a.flagged[x], b.flagged[x])
          << label << " detector " << a.detector << " node " << x;
    }
    ASSERT_EQ(a.candidates.size(), b.candidates.size()) << label;
    for (size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].node, b.candidates[i].node)
          << label << " candidate " << i;
      EXPECT_EQ(a.candidates[i].relative_mass, b.candidates[i].relative_mass)
          << label << " candidate " << i;
      EXPECT_EQ(a.candidates[i].scaled_pagerank,
                b.candidates[i].scaled_pagerank)
          << label << " candidate " << i;
    }
  }
}

TEST(PipelineVariantEquivalenceTest, BaselineVerdictMarginsAreRobust) {
  // Guard for the verdicts: every candidate's relative mass must sit a safe
  // distance from the τ threshold, so a tolerance-level perturbation of
  // the scores could not flip a verdict either.
  pipeline::PipelineConfig config = BaseConfig();
  auto run = RunScenario(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const double tau = config.detection.relative_mass_threshold;
  const double rho = config.detection.scaled_pagerank_threshold;
  double min_tau_margin = 1.0;
  double min_rho_margin = 1.0;
  size_t counted = 0;
  for (const auto& detector : run.value().detectors) {
    for (const auto& candidate : detector.candidates) {
      min_tau_margin = std::min(min_tau_margin,
                                std::abs(candidate.relative_mass - tau));
      min_rho_margin = std::min(
          min_rho_margin, std::abs(candidate.scaled_pagerank - rho));
      ++counted;
    }
  }
  ASSERT_GT(counted, 0u);
  EXPECT_GT(min_tau_margin, 1e-6) << "verdicts too close to tau for the "
                                     "variant-equality assertions to be "
                                     "sound";
  EXPECT_GT(min_rho_margin, 1e-5) << "candidates too close to rho";
}

TEST(PipelineVariantEquivalenceTest, SweepVariantsPreserveDetection) {
  if (simd::Best() != simd::Level::kAvx2) {
    GTEST_SKIP() << "host has no AVX2";
  }
  util::Result<pipeline::PipelineRun> scalar =
      util::Status::Internal("not run");
  {
    const simd::ScopedLevelOverride pin(simd::Level::kScalar);
    scalar = RunScenario(BaseConfig());
  }
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  auto avx2 = RunScenario(BaseConfig());
  ASSERT_TRUE(avx2.ok()) << avx2.status().ToString();
  ExpectSameVerdicts(scalar.value(), avx2.value(), "avx2");
}

TEST(PipelineVariantEquivalenceTest, ManifestEchoesVariantConfig) {
  // "sweep_isa" names the body that ran: the host's best, scalar when
  // pinned there.
  struct Case {
    bool pin_scalar;
    const char* want;
  };
  const Case cases[] = {
      {false, simd::LevelToString(simd::Best())},
      {true, "scalar"},
  };
  for (const Case& c : cases) {
    std::optional<simd::ScopedLevelOverride> pin;
    if (c.pin_scalar) pin.emplace(simd::Level::kScalar);
    auto run = RunScenario(BaseConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string& json = run.value().manifest_json;
    const std::string needle = std::string("\"sweep_isa\":\"") + c.want + "\"";
    EXPECT_NE(json.find(needle), std::string::npos)
        << "manifest missing " << needle << "\n" << json;
    for (const char* gone : {"\"simd\"", "\"precision\":\""}) {
      EXPECT_EQ(json.find(gone), std::string::npos) << gone;
    }
  }
}

// ---- Permutation-invariance property test (core level) ------------------

// The parameter is the solver thread count.
class MassPermutationInvarianceTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MassPermutationInvarianceTest, MassAndVerdictsInvariant) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.03, 23);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  const WebGraph& g = loaded.value().graph();
  const uint32_t n = g.num_nodes();

  core::SpamMassOptions options;
  options.solver.num_threads = GetParam();
  options.solver.tolerance = 1e-12;
  options.solver.max_iterations = 500;
  options.gamma = 0.8;
  auto base =
      core::EstimateSpamMass(g, loaded.value().good_core, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  const std::vector<NodeId> perm = testutil::RandomPermutation(n, 99);
  WebGraph permuted = testutil::Relabel(g, perm);
  std::vector<NodeId> permuted_core;
  for (NodeId x : loaded.value().good_core) permuted_core.push_back(perm[x]);
  std::sort(permuted_core.begin(), permuted_core.end());
  auto got = core::EstimateSpamMass(permuted, permuted_core, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (NodeId x = 0; x < n; ++x) {
    EXPECT_NEAR(base.value().relative_mass[x],
                got.value().relative_mass[perm[x]], 1e-6)
        << "node " << x;
    EXPECT_NEAR(base.value().absolute_mass[x],
                got.value().absolute_mass[perm[x]], 1e-10)
        << "node " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndThreads, MassPermutationInvarianceTest,
    ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return "Jacobi" + std::to_string(info.param) + "Threads";
    });

}  // namespace
}  // namespace spammass
