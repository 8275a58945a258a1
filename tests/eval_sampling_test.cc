// Tests of evaluation sampling and simulated judging.

#include "eval/sampling.h"

#include <gtest/gtest.h>

#include "core/detector.h"
#include "synth/scenario.h"
#include "util/logging.h"

namespace spammass {
namespace {

using core::NodeLabel;
using eval::DrawEvaluationSample;
using eval::EstimateGoodFraction;
using eval::EvaluationSample;
using eval::WithEstimates;
using graph::NodeId;

class SamplingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto r = synth::GenerateWeb(synth::TinyScenario(11));
    CHECK_OK(r.status());
    web_ = new synth::SyntheticWeb(std::move(r.value()));
    core::SpamMassOptions opt;
    opt.solver.tolerance = 1e-10;
    auto est = core::EstimateSpamMass(web_->graph, web_->AssembledGoodCore(),
                                      opt);
    CHECK_OK(est.status());
    estimates_ = new core::MassEstimates(std::move(est.value()));
  }

  static synth::SyntheticWeb* web_;
  static core::MassEstimates* estimates_;
};

synth::SyntheticWeb* SamplingTest::web_ = nullptr;
core::MassEstimates* SamplingTest::estimates_ = nullptr;

TEST_F(SamplingTest, SampleSizeAndMembership) {
  auto filtered = core::PageRankFilteredNodes(*estimates_, 5.0);
  ASSERT_GT(filtered.size(), 30u);
  util::Rng rng(3);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, filtered, 30, 0.0, 0.0, &rng);
  EXPECT_EQ(sample.hosts.size(), 30u);
  for (const auto& h : sample.hosts) {
    EXPECT_TRUE(std::binary_search(filtered.begin(), filtered.end(), h.node));
    EXPECT_GE(h.scaled_pagerank, 5.0);
    EXPECT_FALSE(h.Excluded());
  }
}

TEST_F(SamplingTest, SampleClampedToCandidates) {
  std::vector<NodeId> candidates = {0, 1, 2};
  util::Rng rng(4);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, candidates, 100, 0.0, 0.0, &rng);
  EXPECT_EQ(sample.hosts.size(), 3u);
}

TEST_F(SamplingTest, EmptyCandidates) {
  util::Rng rng(5);
  EvaluationSample sample =
      DrawEvaluationSample(*web_, *estimates_, {}, 10, 0.0, 0.0, &rng);
  EXPECT_TRUE(sample.hosts.empty());
}

TEST_F(SamplingTest, UnknownAndNonexistentFractions) {
  auto filtered = core::PageRankFilteredNodes(*estimates_, 2.0);
  util::Rng rng(6);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, filtered, filtered.size(), 0.3, 0.2, &rng);
  double unknown =
      static_cast<double>(sample.CountJudged(NodeLabel::kUnknown)) /
      sample.hosts.size();
  double nonexistent =
      static_cast<double>(sample.CountJudged(NodeLabel::kNonExistent)) /
      sample.hosts.size();
  EXPECT_NEAR(unknown, 0.3, 0.08);
  EXPECT_NEAR(nonexistent, 0.2, 0.08);
}

TEST_F(SamplingTest, JudgedLabelsMatchGroundTruthWhenNotExcluded) {
  auto filtered = core::PageRankFilteredNodes(*estimates_, 5.0);
  util::Rng rng(7);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, filtered, 200, 0.0, 0.0, &rng);
  for (const auto& h : sample.hosts) {
    EXPECT_EQ(h.judged, web_->labels.Get(h.node));
  }
}

TEST_F(SamplingTest, AnomalousOnlyForGoodAnomalyRegions) {
  auto filtered = core::PageRankFilteredNodes(*estimates_, 2.0);
  util::Rng rng(8);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, filtered, filtered.size(), 0.0, 0.0, &rng);
  for (const auto& h : sample.hosts) {
    EXPECT_EQ(h.anomalous, web_->IsAnomalousGoodNode(h.node));
    if (h.anomalous) {
      EXPECT_TRUE(web_->labels.IsGood(h.node));
    }
  }
}

TEST_F(SamplingTest, WithEstimatesRemapsMasses) {
  auto filtered = core::PageRankFilteredNodes(*estimates_, 5.0);
  util::Rng rng(9);
  EvaluationSample sample = DrawEvaluationSample(
      *web_, *estimates_, filtered, 30, 0.1, 0.1, &rng);
  EvaluationSample remapped = WithEstimates(sample, *estimates_);
  ASSERT_EQ(remapped.hosts.size(), sample.hosts.size());
  for (size_t i = 0; i < sample.hosts.size(); ++i) {
    EXPECT_EQ(remapped.hosts[i].node, sample.hosts[i].node);
    EXPECT_EQ(remapped.hosts[i].judged, sample.hosts[i].judged);
    EXPECT_NEAR(remapped.hosts[i].relative_mass,
                sample.hosts[i].relative_mass, 1e-12);
  }
}

TEST_F(SamplingTest, EstimateGoodFractionTracksTruth) {
  util::Rng rng(10);
  double truth = web_->labels.GoodFraction();
  double estimated = EstimateGoodFraction(web_->labels, 2000, &rng);
  EXPECT_NEAR(estimated, truth, 0.05);
}

TEST(EstimateGoodFractionTest, AllGood) {
  core::LabelStore labels(50);
  util::Rng rng(1);
  EXPECT_NEAR(EstimateGoodFraction(labels, 25, &rng), 1.0, 1e-12);
}

}  // namespace
}  // namespace spammass
