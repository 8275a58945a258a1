// Pipeline subsystem tests: graph-source format sniffing (including
// corrupt and ambiguous files), the detector registry, and the artifact
// cache — in particular that two detectors sharing base PageRank cost
// exactly one base solve.

#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "pipeline/context.h"
#include "pipeline/detector.h"
#include "pipeline/graph_source.h"
#include "synth/paper_graphs.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace spammass {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  ASSERT_TRUE(f.good());
}

graph::WebGraph SmallGraph() {
  graph::GraphBuilder builder;
  for (int i = 0; i < 6; ++i) {
    builder.AddNode(util::StringPrintf("h%d.example.org", i));
  }
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 3);
  builder.AddEdge(0, 3);
  return builder.Build();
}

// ---- Format sniffing -----------------------------------------------------

TEST(GraphSourceSniffTest, DetectsTextEdgeList) {
  const std::string path = TempPath("sniff_text.edges");
  WriteFile(path, "# comment\n0 1\n1 2\n");
  auto format = pipeline::SniffGraphFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format.value(), pipeline::GraphFormat::kTextEdgeList);
}

TEST(GraphSourceSniffTest, DetectsBinaryMagic) {
  const std::string path = TempPath("sniff_bin.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(SmallGraph(), path).ok());
  auto format = pipeline::SniffGraphFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format.value(), pipeline::GraphFormat::kBinary);
}

TEST(GraphSourceSniffTest, RejectsEmptyFile) {
  const std::string path = TempPath("sniff_empty.edges");
  WriteFile(path, "");
  EXPECT_FALSE(pipeline::SniffGraphFormat(path).ok());
}

TEST(GraphSourceSniffTest, RejectsMissingFile) {
  EXPECT_FALSE(pipeline::SniffGraphFormat("/nonexistent/nope.edges").ok());
}

TEST(GraphSourceSniffTest, RejectsAmbiguousBinaryGarbage) {
  // Neither the SMWG magic nor printable text: a corrupt/truncated binary
  // must not fall through to the text parser.
  const std::string path = TempPath("sniff_garbage.bin");
  WriteFile(path, std::string("\x01\x02\xff\xfe garbage", 12));
  auto format = pipeline::SniffGraphFormat(path);
  EXPECT_FALSE(format.ok());
  EXPECT_EQ(format.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphSourceSniffTest, CorruptMagicPrefixIsNotBinary) {
  // "SMW" + junk: not the magic, not text — rejected, not misparsed.
  const std::string path = TempPath("sniff_nearmiss.bin");
  WriteFile(path, std::string("SMW\x00\x01\x02", 6));
  EXPECT_FALSE(pipeline::SniffGraphFormat(path).ok());
}

// ---- GraphSource loading -------------------------------------------------

TEST(GraphSourceTest, TextAndBinaryLoadIdenticalGraphs) {
  graph::WebGraph g = SmallGraph();
  const std::string text_path = TempPath("source_roundtrip.edges");
  const std::string bin_path = TempPath("source_roundtrip.smwg");
  ASSERT_TRUE(graph::WriteEdgeListText(g, text_path).ok());
  ASSERT_TRUE(graph::WriteBinaryV22(g, bin_path).ok());

  pipeline::GraphSource text_source = pipeline::GraphSource::FromFile(text_path);
  pipeline::GraphSource bin_source = pipeline::GraphSource::FromFile(bin_path);
  auto text = text_source.Load();
  auto bin = bin_source.Load();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  EXPECT_EQ(text.value().format, pipeline::GraphFormat::kTextEdgeList);
  EXPECT_EQ(bin.value().format, pipeline::GraphFormat::kBinary);
  ASSERT_EQ(text.value().graph().num_nodes(), bin.value().graph().num_nodes());
  EXPECT_EQ(text.value().graph().num_edges(), bin.value().graph().num_edges());
}

TEST(GraphSourceTest, ScenarioCarriesLabelsAndCore) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 5);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().is_synthetic);
  EXPECT_TRUE(loaded.value().has_labels);
  EXPECT_FALSE(loaded.value().good_core.empty());
  // Synthetic sources are re-loadable.
  EXPECT_TRUE(source.Load().ok());
}

TEST(GraphSourceTest, InMemorySourceIsOneShot) {
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(SmallGraph(), "test graph");
  auto first = source.Load();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().format, pipeline::GraphFormat::kInMemory);
  auto second = source.Load();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(GraphSourceTest, RejectsOutOfRangeGoodCore) {
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(SmallGraph());
  source.WithGoodCore({0, 99});
  EXPECT_FALSE(source.Load().ok());
}

// ---- Detector registry ---------------------------------------------------

TEST(DetectorRegistryTest, KnowsAllBuiltins) {
  auto names = pipeline::DetectorRegistry::Global().Names();
  for (const char* expected :
       {"spam_mass", "trustrank", "naive_scheme1", "naive_scheme2",
        "degree_outlier"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin detector " << expected;
  }
}

TEST(DetectorRegistryTest, UnknownDetectorErrorNamesTheRegistry) {
  auto detector = pipeline::DetectorRegistry::Global().Create("nope");
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), util::StatusCode::kInvalidArgument);
  // The error lists what IS registered, so a typo is self-diagnosing.
  EXPECT_NE(detector.status().ToString().find("spam_mass"),
            std::string::npos);
}

TEST(DetectorRegistryTest, RunDetectorsFailsFastOnUnknownName) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 5);
  pipeline::PipelineConfig config;
  auto run = pipeline::RunDetectors(source, config, {"spam_mass", "typo"});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
}

// ---- Artifact cache ------------------------------------------------------

TEST(PipelineContextTest, TwoDetectorsShareOneBasePageRankSolve) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 7);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  pipeline::PipelineConfig config;
  pipeline::PipelineContext context(loaded.value(), config);

  // Spam mass and TrustRank both need base PageRank; preparing the union
  // of their needs must run the base solve exactly once.
  auto spam_mass = pipeline::DetectorRegistry::Global().Create("spam_mass");
  auto trustrank = pipeline::DetectorRegistry::Global().Create("trustrank");
  ASSERT_TRUE(spam_mass.ok() && trustrank.ok());
  pipeline::ArtifactNeeds needs =
      spam_mass.value()->Needs(context).Union(trustrank.value()->Needs(context));
  ASSERT_TRUE(context.Prepare(needs).ok());
  EXPECT_EQ(context.base_pagerank_solves(), 1u);

  auto mass_output = spam_mass.value()->Run(context);
  auto trust_output = trustrank.value()->Run(context);
  ASSERT_TRUE(mass_output.ok()) << mass_output.status().ToString();
  ASSERT_TRUE(trust_output.ok()) << trust_output.status().ToString();
  // Running the detectors consumes cached artifacts — still one solve.
  EXPECT_EQ(context.base_pagerank_solves(), 1u);
}

TEST(PipelineContextTest, PrepareIsIdempotent) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 7);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  pipeline::PipelineConfig config;
  pipeline::PipelineContext context(loaded.value(), config);
  pipeline::ArtifactNeeds needs;
  needs.mass_estimates = true;
  ASSERT_TRUE(context.Prepare(needs).ok());
  const uint64_t solves_after_first = context.total_solves();
  // Re-preparing the same needs computes nothing new.
  ASSERT_TRUE(context.Prepare(needs).ok());
  EXPECT_EQ(context.total_solves(), solves_after_first);
  // Widening the needs only fills the gap (trust propagation), never
  // re-runs the base or core solves.
  needs.trustrank = true;
  ASSERT_TRUE(context.Prepare(needs).ok());
  EXPECT_EQ(context.base_pagerank_solves(), 1u);
}

TEST(PipelineContextTest, MassNeedsGoodCore) {
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(SmallGraph());
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  pipeline::PipelineConfig config;
  pipeline::PipelineContext context(loaded.value(), config);
  pipeline::ArtifactNeeds needs;
  needs.mass_estimates = true;
  util::Status status = context.Prepare(needs);
  ASSERT_FALSE(status.ok());
  // Same error the seed implementation (EstimateSpamMass) raises.
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("good core"), std::string::npos);
}

TEST(PipelineContextTest, NaiveSchemesRequireLabels) {
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(SmallGraph());
  source.WithGoodCore({0, 1});
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  pipeline::PipelineConfig config;
  pipeline::PipelineContext context(loaded.value(), config);
  auto detector = pipeline::DetectorRegistry::Global().Create("naive_scheme1");
  ASSERT_TRUE(detector.ok());
  ASSERT_TRUE(context.Prepare(detector.value()->Needs(context)).ok());
  auto output = detector.value()->Run(context);
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---- RunDetectors + manifest --------------------------------------------

TEST(RunDetectorsTest, ProducesManifestAndOutputs) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 11);
  pipeline::PipelineConfig config;
  auto run =
      pipeline::RunDetectors(source, config, {"spam_mass", "trustrank"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().detectors.size(), 2u);
  EXPECT_EQ(run.value().base_pagerank_solves, 1u);
  EXPECT_GT(run.value().total_solves, 1u);
  // The manifest is one JSON object carrying the headline fields.
  const std::string& json = run.value().manifest_json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* needle :
       {"\"schema_version\":3", "\"base_pagerank_solves\":1",
        "\"spam_mass\"", "\"trustrank\"", "\"stages\"", "\"solver\"",
        "\"convergence\"", "\"metrics\"", "\"pagerank.solves\""}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "manifest missing " << needle << "\n" << json;
  }
}

TEST(RunDetectorsTest, TrustRankReportsTheSeedMargin) {
  auto metric = [](const pipeline::DetectorOutput& out, const char* name) {
    return std::find_if(out.metrics.begin(), out.metrics.end(),
                        [name](const auto& m) { return m.first == name; });
  };
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.02, 11);
  pipeline::PipelineConfig config;
  auto run = pipeline::RunDetectors(source, config, {"trustrank"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const pipeline::DetectorOutput& out = run.value().detectors.front();
  auto gap = metric(out, "seed_gap");
  auto bound = metric(out, "seed_gap_bound");
  ASSERT_NE(gap, out.metrics.end());
  ASSERT_NE(bound, out.metrics.end());
  EXPECT_GE(gap->second, 0.0);
  EXPECT_GT(bound->second, 0.0);
  EXPECT_NE(run.value().manifest_json.find("\"seed_gap_bound\""),
            std::string::npos);
}

TEST(RunDetectorsTest, Figure2SpamMassMatchesPaper) {
  // The paper's Figure 2 example through the full pipeline path: the
  // known spam candidates surface through DetectorOutput.
  synth::Figure2Graph fig = synth::MakeFigure2Graph();
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(std::move(fig.graph), "figure 2");
  source.WithGoodCore(fig.good_core);
  pipeline::PipelineConfig config;
  config.solver.tolerance = 1e-14;
  config.solver.max_iterations = 2000;
  config.scale_core_jump = false;
  config.detection.scaled_pagerank_threshold = 1.5;
  config.detection.relative_mass_threshold = 0.5;
  auto run = pipeline::RunDetectors(source, config, {"spam_mass"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().detectors.size(), 1u);
  const pipeline::DetectorOutput& output = run.value().detectors[0];
  EXPECT_EQ(output.flagged_count, 3u);  // x, s0, and the g2 false positive
}

}  // namespace
}  // namespace spammass
