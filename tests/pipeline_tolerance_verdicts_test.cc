// Pins that the solver preset's tolerance (SolverOptions::BenchPreset) is
// tight enough for the verdicts: on the scale-0.5 scenario, the preset
// and a 1e-12 solve must flag exactly the same hosts — for the spam_mass
// and trustrank detectors, and for Algorithm 2 under four of Figure 5's
// good cores.
// EXPERIMENTS.md E17 has the matrix the preset was chosen from and this
// test's resolving power.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/good_core.h"
#include "core/spam_mass.h"
#include "pipeline/pipeline.h"
#include "util/random.h"

namespace spammass {
namespace {

constexpr double kReferenceTolerance = 1e-12;

std::vector<graph::NodeId> FlaggedHosts(const pipeline::DetectorOutput& out) {
  std::vector<graph::NodeId> hosts;
  for (graph::NodeId x = 0; x < out.flagged.size(); ++x) {
    if (out.flagged[x]) hosts.push_back(x);
  }
  return hosts;
}

struct Case {
  uint64_t seed;
};

// Without it gtest prints a Case as raw bytes, and the ctest names would
// change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << "seed " << c.seed; }

class PresetVerdictTest : public ::testing::TestWithParam<Case> {
 protected:
  pipeline::GraphSource Source() const {
    return pipeline::GraphSource::Scenario(0.5, GetParam().seed);
  }
  /// The preset, as PipelineConfig carries it.
  pipeline::PipelineConfig PresetConfig() const { return {}; }
  /// The same configuration at the reference tolerance.
  pipeline::PipelineConfig ReferenceConfig() const {
    pipeline::PipelineConfig config = PresetConfig();
    config.solver.tolerance = kReferenceTolerance;
    return config;
  }
};

TEST_P(PresetVerdictTest, DetectorsFlagTheSameHostsAsAReferenceSolve) {
  const pipeline::PipelineConfig preset = PresetConfig();
  ASSERT_GT(preset.solver.tolerance, kReferenceTolerance);
  pipeline::GraphSource source = Source();
  auto got = pipeline::RunDetectors(source, preset, {"spam_mass", "trustrank"});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = pipeline::RunDetectors(source, ReferenceConfig(),
                                     {"spam_mass", "trustrank"});
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ASSERT_EQ(got.value().detectors.size(), 2u);
  ASSERT_EQ(want.value().detectors.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const pipeline::DetectorOutput& a = got.value().detectors[i];
    const pipeline::DetectorOutput& b = want.value().detectors[i];
    ASSERT_EQ(a.detector, b.detector);
    EXPECT_GT(b.flagged_count, 0u) << b.detector;
    EXPECT_EQ(FlaggedHosts(a), FlaggedHosts(b)) << a.detector;
  }
}

TEST_P(PresetVerdictTest, Figure5CoresFlagTheSameHostsAsAReferenceSolve) {
  auto loaded = Source().Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const graph::WebGraph& graph = loaded.value().graph();
  const std::vector<graph::NodeId>& full = loaded.value().good_core;

  // bench_figure5_core_size's variants: the full core, 10 % and 1 %
  // uniform subsamples, and the single-region .it core.
  util::Rng rng(GetParam().seed + 17);
  const std::vector<std::vector<graph::NodeId>> cores = {
      full, core::SubsampleCore(full, 0.1, &rng),
      core::SubsampleCore(full, 0.01, &rng),
      core::FilterCoreByRegion(full, loaded.value().web.region_of_node,
                               loaded.value().web.RegionIndex("it"))};

  const pipeline::PipelineConfig preset = PresetConfig();
  auto candidates = [&](const std::vector<graph::NodeId>& good_core,
                        const pagerank::SolverOptions& solver) {
    core::SpamMassOptions options;
    options.solver = solver;
    options.gamma = preset.gamma;
    auto est = core::EstimateSpamMass(graph, good_core, options);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    std::vector<graph::NodeId> nodes;
    if (!est.ok()) return nodes;
    for (const core::SpamCandidate& c :
         core::DetectSpamCandidates(est.value(), preset.detection)) {
      nodes.push_back(c.node);
    }
    std::sort(nodes.begin(), nodes.end());
    return nodes;
  };
  for (size_t i = 0; i < cores.size(); ++i) {
    ASSERT_FALSE(cores[i].empty()) << "core " << i;
    const std::vector<graph::NodeId> want =
        candidates(cores[i], ReferenceConfig().solver);
    EXPECT_FALSE(want.empty()) << "core " << i;
    EXPECT_EQ(candidates(cores[i], preset.solver), want) << "core " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scale05, PresetVerdictTest,
    ::testing::Values(Case{1}, Case{2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "Seed" + std::to_string(info.param.seed) + "Preset";
    });

}  // namespace
}  // namespace spammass
