// E17: tolerance vs verdicts. Solves one scenario corpus at a ladder of L1
// tolerances with Jacobi and compares every verdict with a 1e-12 reference
// on three paths:
//   spam_mass   the pipeline's Algorithm 2 flags,
//   trustrank   the pipeline's TrustRank demotion flags,
//   cores       DetectSpamCandidates for each of the 16 Figure 5 cores
//               (8 uniform subsamples, 8 single-region cores), one
//               16-lane solve against the shared base PageRank.
// The cores are the repository benchmark's core_sweep family, built with
// the same seed. The pipeline runs without the seed oracle, as the
// benchmark's detect workload does (a scale-10 top-50 holds no good host).
// Alongside: sweeps per solve, the 16-lane round's sweeps and lane
// iterations, the TrustRank seed cut's margin, and 1/n (the n-scaled
// tolerance rule) for comparison.
//
// Usage: bench_tolerance_verdicts [scale=1] [seed=1] [threads=4]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/good_core.h"
#include "core/spam_mass.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "pipeline/pipeline.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

using namespace spammass;

namespace {

constexpr double kReferenceTolerance = 1e-12;
constexpr double kTolerances[] = {1e-10, 1e-9, 1e-8, 1e-7, 1e-6};
constexpr double kCoreFractions[] = {1.0,  0.5,  0.25, 0.1,
                                     0.05, 0.02, 0.01, 0.001};
constexpr const char* kCoreRegions[] = {"usgov", "de", "fr", "es",
                                        "jp",    "uk", "cz", "it"};

using NodeSet = std::vector<graph::NodeId>;

NodeSet FlaggedSet(const std::vector<bool>& flagged) {
  NodeSet set;
  for (graph::NodeId x = 0; x < flagged.size(); ++x) {
    if (flagged[x]) set.push_back(x);
  }
  return set;
}

/// Verdict changes of one path against the reference: hosts the reference
/// flags that this run does not (lost), and the reverse (new).
struct Change {
  size_t lost = 0;
  size_t added = 0;

  void Add(const NodeSet& reference, const NodeSet& got) {
    NodeSet diff;
    std::set_difference(reference.begin(), reference.end(), got.begin(),
                        got.end(), std::back_inserter(diff));
    lost += diff.size();
    diff.clear();
    std::set_difference(got.begin(), got.end(), reference.begin(),
                        reference.end(), std::back_inserter(diff));
    added += diff.size();
  }
  std::string ToString() const {
    if (lost == 0 && added == 0) return "0";
    return util::StringPrintf("-%zu/+%zu", lost, added);
  }
};

/// Everything one tolerance yields.
struct Outcome {
  int seed_sweeps = 0, base_sweeps = 0, core_sweeps = 0, trust_sweeps = 0;
  int round_sweeps = 0, lane_iterations = 0;
  double seed_gap = 0, seed_gap_bound = 0;
  NodeSet spam_mass, trustrank;
  std::vector<NodeSet> cores;
  double seconds = 0;
};

double Metric(const pipeline::DetectorOutput& out, const std::string& name) {
  for (const auto& [key, value] : out.metrics) {
    if (key == name) return value;
  }
  return 0;
}

Outcome Solve(pipeline::LoadedGraph* loaded,
              const std::vector<pagerank::JumpVector>& core_jumps,
              double tolerance, uint32_t threads) {
  pipeline::PipelineConfig config;
  config.solver.method = pagerank::Method::kJacobi;
  config.solver.num_threads = threads;
  config.solver.tolerance = tolerance;
  config.trustrank.filter_seeds_by_oracle = false;
  Outcome o;
  util::WallTimer timer;

  auto run = pipeline::RunDetectors(std::move(*loaded), config,
                                    {"spam_mass", "trustrank"});
  CHECK_OK(run.status());
  for (const auto& [name, stats] : run.value().solve_stats) {
    CHECK(stats.converged) << name << " did not converge";
    if (name == "trustrank_seed_selection") o.seed_sweeps = stats.iterations;
    if (name == "base_pagerank") o.base_sweeps = stats.iterations;
    if (name == "core_pagerank") o.core_sweeps = stats.iterations;
    if (name == "trustrank") o.trust_sweeps = stats.iterations;
  }
  for (const pipeline::DetectorOutput& out : run.value().detectors) {
    if (out.detector == "spam_mass") o.spam_mass = FlaggedSet(out.flagged);
    if (out.detector == "trustrank") {
      o.trustrank = FlaggedSet(out.flagged);
      o.seed_gap = Metric(out, "seed_gap");
      o.seed_gap_bound = Metric(out, "seed_gap_bound");
    }
  }
  *loaded = std::move(run.value().source);

  // The Figure 5 family: one 16-lane solve, then Algorithm 2 per core.
  const graph::WebGraph& g = loaded->graph();
  pagerank::SolverWorkspace workspace;
  auto base = pagerank::ComputeUniformPageRank(g, config.solver, &workspace);
  CHECK_OK(base.status());
  auto lanes = pagerank::ComputePageRankMulti(g, core_jumps, config.solver,
                                              &workspace);
  CHECK_OK(lanes.status());
  for (pagerank::PageRankResult& lane : lanes.value()) {
    CHECK(lane.converged) << "core lane did not converge";
    o.round_sweeps = std::max(o.round_sweeps, lane.iterations);
    o.lane_iterations += lane.iterations;
    core::MassEstimates est = core::MassEstimatesFromScores(
        base.value().scores, std::move(lane.scores), config.solver.damping);
    NodeSet set;
    for (const core::SpamCandidate& c :
         core::DetectSpamCandidates(est, config.detection)) {
      set.push_back(c.node);
    }
    std::sort(set.begin(), set.end());
    o.cores.push_back(std::move(set));
  }
  o.seconds = timer.Seconds();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  const auto threads =
      static_cast<uint32_t>(argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 4);

  auto source = pipeline::GraphSource::Scenario(scale, seed).Load();
  CHECK_OK(source.status());
  pipeline::LoadedGraph loaded = std::move(source.value());
  const uint32_t n = loaded.graph().num_nodes();

  const double gamma = pipeline::PipelineConfig().gamma;
  util::Rng rng(seed + 17);
  std::vector<pagerank::JumpVector> core_jumps;
  const NodeSet& core = loaded.good_core;
  for (double fraction : kCoreFractions) {
    core_jumps.push_back(pagerank::JumpVector::ScaledCore(
        n, fraction == 1.0 ? core : core::SubsampleCore(core, fraction, &rng),
        gamma));
  }
  for (const char* region : kCoreRegions) {
    NodeSet regional = core::FilterCoreByRegion(
        core, loaded.web.region_of_node, loaded.web.RegionIndex(region));
    CHECK(!regional.empty()) << "empty " << region << " core";
    core_jumps.push_back(pagerank::JumpVector::ScaledCore(n, regional, gamma));
  }

  std::printf("# E17 tolerance vs verdicts: scale %g, seed %llu, %u hosts, "
              "%llu links, 1/n = %.2e, Jacobi on %u threads\n",
              scale, static_cast<unsigned long long>(seed), n,
              static_cast<unsigned long long>(loaded.graph().num_edges()),
              1.0 / n, threads);

  const Outcome ref = Solve(&loaded, core_jumps, kReferenceTolerance, threads);
  size_t ref_core_flags = 0;
  for (const NodeSet& s : ref.cores) ref_core_flags += s.size();
  std::printf("# reference 1e-12 flags: spam_mass %zu, trustrank %zu, "
              "cores %zu (16 cores summed)\n\n",
              ref.spam_mass.size(), ref.trustrank.size(), ref_core_flags);

  util::TextTable table;
  table.SetHeader({"tolerance", "seed/base/core/trust sweeps",
                   "16-lane sweeps (lane-its)", "seed gap", "gap bound",
                   "spam_mass", "trustrank", "cores", "seconds"});
  auto row = [&table](double tolerance, const Outcome& o,
                      const std::string& sm, const std::string& tr,
                      const std::string& cores) {
    table.AddRow({util::StringPrintf("%.0e", tolerance),
                  util::StringPrintf("%d/%d/%d/%d", o.seed_sweeps,
                                     o.base_sweeps, o.core_sweeps,
                                     o.trust_sweeps),
                  util::StringPrintf("%d (%d)", o.round_sweeps,
                                     o.lane_iterations),
                  util::StringPrintf("%.3g", o.seed_gap),
                  util::StringPrintf("%.3g", o.seed_gap_bound), sm, tr,
                  cores, util::StringPrintf("%.1f", o.seconds)});
  };
  row(kReferenceTolerance, ref, "ref", "ref", "ref");
  for (double tolerance : kTolerances) {
    const Outcome o = Solve(&loaded, core_jumps, tolerance, threads);
    Change spam_mass, trustrank, cores;
    spam_mass.Add(ref.spam_mass, o.spam_mass);
    trustrank.Add(ref.trustrank, o.trustrank);
    for (size_t i = 0; i < o.cores.size(); ++i) {
      cores.Add(ref.cores[i], o.cores[i]);
    }
    row(tolerance, o, spam_mass.ToString(), trustrank.ToString(),
        cores.ToString());
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "verdict columns: hosts lost/new against the 1e-12 reference "
      "(0 = identical sets).\nseed gap > gap bound certifies the TrustRank "
      "seed set from the bound alone.\n");
  return 0;
}
