// E16 (extension): the robustness argument of the paper's conclusion —
// "knowledgeable spammers could attempt to collect a large number of links
// from good nodes", and that is the only evasion that works. This bench
// fixes a farm (100 boosters) inside a good background web and sweeps the
// number of hijacked good links pointing at the target, reporting the
// target's PageRank, relative mass, and detector verdicts. Evasion demands
// so many genuine good links that the boosting itself becomes redundant —
// the expired-domain regime (Section 4.4.3, observation 2).

#include <cstdio>
#include <cstdlib>

#include "core/spam_mass.h"
#include "graph/graph_builder.h"
#include "pagerank/solver.h"
#include "synth/spam_farm.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table.h"

using namespace spammass;

namespace {

constexpr uint32_t kBackground = 4000;
constexpr uint32_t kBoosters = 100;

struct TrialResult {
  double scaled_pagerank = 0;
  double relative_mass = 0;
  double good_link_share = 0;  // fraction of p_target contributed by good
};

/// Builds background + farm + `hijacked` good->target links; returns the
/// target's metrics.
TrialResult RunTrial(uint32_t hijacked, uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphBuilder builder;
  for (uint32_t i = 0; i < kBackground; ++i) {
    builder.AddNode("good" + std::to_string(i) + ".example.org");
  }
  // Scale-free-ish background: chain plus random chords.
  for (uint32_t i = 0; i < kBackground; ++i) {
    builder.AddEdge(i, (i + 1) % kBackground);
    for (int e = 0; e < 3; ++e) {
      auto v = static_cast<graph::NodeId>(rng.UniformIndex(kBackground));
      if (v != i) builder.AddEdge(i, v);
    }
  }
  synth::FarmSpec spec;
  spec.num_boosters = kBoosters;
  synth::FarmInfo farm =
      synth::BuildSpamFarm(&builder, spec, "target.spam.biz", "b", &rng);
  for (uint32_t h = 0; h < hijacked; ++h) {
    auto g = static_cast<graph::NodeId>(rng.UniformIndex(kBackground));
    builder.AddEdge(g, farm.target);
  }
  graph::WebGraph web = builder.Build();

  // Good core: a uniform 5% slice of the background.
  std::vector<graph::NodeId> good_core;
  for (graph::NodeId x = 0; x < kBackground; x += 20) good_core.push_back(x);

  core::SpamMassOptions options;
  options.solver = pagerank::SolverOptions::BenchPreset();
  options.solver.tolerance = 1e-12;
  options.solver.max_iterations = 600;
  options.gamma = static_cast<double>(kBackground) / web.num_nodes();
  auto est = core::EstimateSpamMass(web, good_core, options);
  CHECK_OK(est.status());

  TrialResult out;
  const double scale = static_cast<double>(web.num_nodes()) /
                       (1.0 - est.value().damping);
  out.scaled_pagerank = est.value().pagerank[farm.target] * scale;
  out.relative_mass = est.value().relative_mass[farm.target];
  // Actual good contribution share (ground truth): everything but the farm.
  core::LabelStore labels(web.num_nodes());
  labels.Set(farm.target, core::NodeLabel::kSpam);
  for (graph::NodeId b : farm.boosters) labels.Set(b, core::NodeLabel::kSpam);
  auto actual = core::ComputeActualSpamMass(web, labels, options.solver);
  CHECK_OK(actual.status());
  out.good_link_share =
      1.0 - actual.value().relative_mass[farm.target];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  std::printf(
      "== Evasion study: hijacked good links vs detectability ==\n"
      "farm: %u boosters (recirculating); background: %u good hosts;\n"
      "core: uniform 5%% of the background.\n\n",
      kBoosters, kBackground);
  util::TextTable table;
  table.SetHeader({"hijacked good links", "target scaled PR",
                   "rel mass m~", "good share of PR", "tau=0.98", "tau=0.9"});
  for (uint32_t hijacked : {0u, 2u, 8u, 32u, 128u, 512u}) {
    TrialResult t = RunTrial(hijacked, seed);
    table.AddRow({std::to_string(hijacked),
                  util::FormatDouble(t.scaled_pagerank, 1),
                  util::FormatDouble(t.relative_mass, 3),
                  util::FormatDouble(t.good_link_share, 3),
                  t.relative_mass >= 0.98 ? "DETECTED" : "missed",
                  t.relative_mass >= 0.9 ? "DETECTED" : "missed"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "the exact boundary: the detector at threshold tau misses a target\n"
      "precisely when genuine good links contribute more than (1 - tau) of\n"
      "its PageRank (m~ is the spam share). Evasion therefore costs real\n"
      "organic endorsement in proportion to the PageRank being faked —\n"
      "the paper's conclusion that informed spammers cannot cheaply tamper\n"
      "with the method, with the expired-domain false-negative regime\n"
      "(Section 4.4.3) as the boundary case.\n");
  return 0;
}
