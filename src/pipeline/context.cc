#include "pipeline/context.h"

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "pagerank/jump_vector.h"
#include "util/logging.h"

namespace spammass::pipeline {

using graph::NodeId;
using pagerank::JumpVector;
using util::Status;

PipelineContext::PipelineContext(const LoadedGraph& source,
                                 const PipelineConfig& config)
    : source_(&source), config_(&config) {}

const pagerank::PageRankResult& PipelineContext::BasePageRank() const {
  CHECK(has_base_pagerank_) << "base PageRank not prepared";
  return base_pagerank_;
}

const core::MassEstimates& PipelineContext::MassEstimates() const {
  CHECK(has_mass_estimates_) << "mass estimates not prepared";
  return mass_estimates_;
}

const core::TrustRankResult& PipelineContext::TrustRank() const {
  CHECK(has_trustrank_) << "TrustRank not prepared";
  return trustrank_;
}

const graph::GraphStats& PipelineContext::GraphStats() const {
  CHECK(has_graph_stats_) << "graph stats not prepared";
  return graph_stats_;
}

core::MassEstimates PipelineContext::TakeMassEstimates() {
  CHECK(has_mass_estimates_) << "mass estimates not prepared";
  has_mass_estimates_ = false;
  return std::move(mass_estimates_);
}

Status PipelineContext::Prepare(const ArtifactNeeds& requested) {
  SPAMMASS_TRACE_SPAN("pipeline.prepare");
  ArtifactNeeds needs = requested;
  // Mass needs p for the relative-mass denominator; the TrustRank detector
  // needs p for the trust/PageRank demotion ratio.
  if (needs.mass_estimates || needs.trustrank) needs.base_pagerank = true;

  const graph::WebGraph& web = graph();
  const PipelineConfig& cfg = *config_;

  if (needs.graph_stats && !has_graph_stats_) {
    obs::ScopedStageTimer timer("graph_stats", &stage_timings_);
    graph_stats_ = graph::ComputeGraphStats(web);
    has_graph_stats_ = true;
  }

  const bool solve_mass = needs.mass_estimates && !has_mass_estimates_;
  const bool solve_trust = needs.trustrank && !has_trustrank_;
  const bool solve_base = needs.base_pagerank && !has_base_pagerank_;

  // Input validation up front, mirroring core::EstimateSpamMass exactly so
  // callers migrating onto the pipeline see the same errors.
  if (solve_mass) {
    if (source_->good_core.empty()) {
      return Status::InvalidArgument("good core must not be empty");
    }
    for (NodeId x : source_->good_core) {
      if (x >= web.num_nodes()) {
        return Status::InvalidArgument("good-core node id out of range");
      }
    }
    if (!(cfg.gamma > 0.0) || cfg.gamma > 1.0) {
      return Status::InvalidArgument("gamma must lie in (0, 1]");
    }
  }

  // TrustRank seed selection runs first: its solve is over the TRANSPOSED
  // graph and cannot join the forward stream.
  std::vector<NodeId> trust_seeds;
  std::optional<core::SeedMargin> seed_margin;
  if (solve_trust) {
    obs::ScopedStageTimer timer("trustrank_seed_selection", &stage_timings_);
    // The oracle filter needs ground truth; without labels every candidate
    // is kept (the TrustRank paper's human inspection has no stand-in).
    const core::LabelStore* oracle =
        cfg.trustrank.filter_seeds_by_oracle && source_->has_labels
            ? &source_->web.labels
            : nullptr;
    auto selection = core::SelectTrustRankSeeds(
        web, cfg.trustrank.seed_candidates, oracle, cfg.solver, &workspace_);
    if (!selection.ok()) return selection.status();
    trust_seeds = std::move(selection.value().seeds);
    seed_margin = selection.value().margin;
    solve_stats_.emplace_back(
        "trustrank_seed_selection",
        pagerank::SolveStats::FromResult(selection.value().inverse_pagerank));
  }

  // Every forward solve the requested artifacts need, as ONE multi-RHS
  // stream: the lanes advance through a single CSR traversal per sweep
  // under Jacobi, and each lane is bit-identical to a standalone solve
  // (pagerank/solver.h) — which is what makes this cache transparent.
  std::vector<JumpVector> jumps;
  int base_lane = -1, core_lane = -1, trust_lane = -1;
  if (solve_base) {
    base_lane = static_cast<int>(jumps.size());
    jumps.push_back(JumpVector::Uniform(web.num_nodes()));
  }
  if (solve_mass) {
    core_lane = static_cast<int>(jumps.size());
    jumps.push_back(cfg.scale_core_jump
                        ? JumpVector::ScaledCore(web.num_nodes(),
                                                 source_->good_core, cfg.gamma)
                        : JumpVector::Core(web.num_nodes(),
                                           source_->good_core));
  }
  if (solve_trust) {
    trust_lane = static_cast<int>(jumps.size());
    // Uniform jump over the seeds with total mass 1 (ComputeTrustRank).
    jumps.push_back(
        JumpVector::ScaledCore(web.num_nodes(), trust_seeds, 1.0));
  }
  if (!jumps.empty()) {
    auto solves = [&] {
      obs::ScopedStageTimer timer("forward_solves", &stage_timings_);
      return pagerank::ComputePageRankMulti(web, jumps, cfg.solver,
                                            &workspace_);
    }();
    if (!solves.ok()) return solves.status();
    if (base_lane >= 0) {
      base_pagerank_ =
          std::move(solves.value()[static_cast<size_t>(base_lane)]);
      has_base_pagerank_ = true;
      ++base_pagerank_solves_;
      static obs::Counter* base_solves_counter =
          obs::MetricsRegistry::Global().GetCounter(
              "pipeline.base_pagerank_solves");
      base_solves_counter->Increment();
      solve_stats_.emplace_back(
          "base_pagerank", pagerank::SolveStats::FromResult(base_pagerank_));
    }
    if (core_lane >= 0) {
      pagerank::PageRankResult& core_pr =
          solves.value()[static_cast<size_t>(core_lane)];
      solve_stats_.emplace_back("core_pagerank",
                                pagerank::SolveStats::FromResult(core_pr));
      // Definition 3 from the two solved score vectors; identical
      // arithmetic (and debug validation) to core::EstimateSpamMass.
      mass_estimates_ = core::MassEstimatesFromScores(
          base_pagerank_.scores, std::move(core_pr.scores),
          cfg.solver.damping);
      has_mass_estimates_ = true;
    }
    if (trust_lane >= 0) {
      pagerank::PageRankResult& trust_pr =
          solves.value()[static_cast<size_t>(trust_lane)];
      solve_stats_.emplace_back("trustrank",
                                pagerank::SolveStats::FromResult(trust_pr));
      trustrank_.seeds = std::move(trust_seeds);
      trustrank_.seed_margin = seed_margin;
      trustrank_.trust = std::move(trust_pr.scores);
      has_trustrank_ = true;
    }
  }
  return Status::OK();
}

}  // namespace spammass::pipeline
