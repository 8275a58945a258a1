// Anatomy of a spam farm (Section 2.3 of the paper): how boosting nodes,
// recirculation and alliances amplify the target's PageRank, and how the
// target's spam mass exposes the boost regardless of the farm's shape.
//
//   $ ./spam_farm_anatomy

#include <cstdio>

#include "graph/graph_builder.h"
#include "pagerank/solver.h"
#include "pipeline/context.h"
#include "pipeline/graph_source.h"
#include "synth/spam_farm.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace spammass;

namespace {

constexpr double kDamping = 0.85;

pagerank::SolverOptions Solver() {
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-13;
  opt.max_iterations = 3000;
  return opt;
}

/// Builds an isolated farm with k boosters inside an otherwise empty web of
/// background hosts and reports the target's scaled PageRank and relative
/// mass (estimated against a good core of background hosts).
void FarmRow(uint32_t k, bool links_back, util::TextTable* table) {
  util::Rng rng(k);
  graph::GraphBuilder builder;
  // Background good web: a modest ring so the good core reaches something.
  const uint32_t background = 200;
  for (uint32_t i = 0; i < background; ++i) {
    builder.AddNode(util::StringPrintf("good%u.example.org", i));
  }
  for (uint32_t i = 0; i < background; ++i) {
    builder.AddEdge(i, (i + 1) % background);
    builder.AddEdge(i, (i + 17) % background);
  }
  synth::FarmSpec spec;
  spec.num_boosters = k;
  spec.target_links_back = links_back;
  synth::FarmInfo farm =
      synth::BuildSpamFarm(&builder, spec, "target.spam.biz", "booster",
                           &rng);
  graph::WebGraph web = builder.Build();
  const uint32_t num_nodes = web.num_nodes();

  std::vector<graph::NodeId> good_core;
  for (graph::NodeId i = 0; i < 20; ++i) good_core.push_back(i);
  pipeline::GraphSource source =
      pipeline::GraphSource::FromGraph(std::move(web), "spam farm");
  source.WithGoodCore(good_core);
  auto loaded = source.Load();
  if (!loaded.ok()) return;

  pipeline::PipelineConfig config;
  config.solver = Solver();
  config.gamma = static_cast<double>(background) / num_nodes;
  pipeline::PipelineContext context(loaded.value(), config);
  pipeline::ArtifactNeeds needs;
  needs.mass_estimates = true;
  util::Status status = context.Prepare(needs);
  if (!status.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 status.ToString().c_str());
    return;
  }
  const core::MassEstimates& est = context.MassEstimates();
  auto scaled = pagerank::ScaledScores(est.pagerank, kDamping);
  double predicted =
      synth::PredictedTargetScaledPageRank(k, kDamping, links_back);
  table->AddRow({std::to_string(k), links_back ? "yes" : "no",
                 util::FormatDouble(predicted, 2),
                 util::FormatDouble(scaled[farm.target], 2),
                 util::FormatDouble(est.relative_mass[farm.target], 3)});
}

}  // namespace

int main() {
  std::printf(
      "How farm size and structure drive the target's PageRank\n"
      "(predicted = closed form for an isolated farm; relative mass is\n"
      "estimated from a good core that excludes the farm):\n\n");
  util::TextTable table;
  table.SetHeader({"boosters", "recirculates", "predicted p^", "measured p^",
                   "relative mass"});
  for (bool links_back : {false, true}) {
    for (uint32_t k : {5u, 20u, 100u, 500u}) {
      FarmRow(k, links_back, &table);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Recirculating the target's PageRank back through the boosters\n"
      "multiplies the boost by 1/(1-c^2) = %.3f — the optimal farm of the\n"
      "paper's reference [8]. In every configuration the target's relative\n"
      "mass is ~1: the farm cannot hide from mass estimation.\n\n",
      1.0 / (1.0 - kDamping * kDamping));

  // Alliances: rings of farms exchanging target links.
  std::printf("Alliances of 20-booster farms (targets linked in a ring):\n\n");
  util::TextTable alliance_table;
  alliance_table.SetHeader(
      {"farms allied", "target p^ (each)", "vs isolated"});
  double isolated = 0;
  for (uint32_t farms : {1u, 2u, 4u, 8u}) {
    util::Rng rng(7);
    graph::GraphBuilder builder;
    std::vector<synth::FarmInfo> infos;
    std::vector<graph::NodeId> targets;
    for (uint32_t f = 0; f < farms; ++f) {
      synth::FarmSpec spec;
      spec.num_boosters = 20;
      infos.push_back(synth::BuildSpamFarm(
          &builder, spec, util::StringPrintf("t%u", f),
          util::StringPrintf("b%u", f), &rng));
      targets.push_back(infos.back().target);
    }
    synth::LinkAllianceTargets(&builder, targets);
    pipeline::GraphSource source = pipeline::GraphSource::FromGraph(
        builder.Build(), "farm alliance");
    auto loaded = source.Load();
    if (!loaded.ok()) return 1;
    pipeline::PipelineConfig config;
    config.solver = Solver();
    pipeline::PipelineContext context(loaded.value(), config);
    pipeline::ArtifactNeeds needs;
    needs.base_pagerank = true;
    if (!context.Prepare(needs).ok()) return 1;
    auto scaled =
        pagerank::ScaledScores(context.BasePageRank().scores, kDamping);
    double t0 = scaled[infos[0].target];
    if (farms == 1) isolated = t0;
    alliance_table.AddRow({std::to_string(farms),
                           util::FormatDouble(t0, 2),
                           util::FormatDouble(t0 / isolated, 3)});
  }
  std::printf("%s\n", alliance_table.ToString().c_str());
  std::printf(
      "Collaboration pays: every allied target out-ranks the isolated\n"
      "configuration, which is why the paper models alliances explicitly.\n");
  return 0;
}
