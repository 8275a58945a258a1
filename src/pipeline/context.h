// PipelineContext — shared state for one detection run over one graph:
// the loaded graph, the run configuration, a reusable SolverWorkspace, and
// an artifact cache. Detectors declare what they need (ArtifactNeeds);
// Prepare() computes the union ONCE, fusing every forward PageRank solve —
// base PageRank, the γ-scaled core PageRank of the mass estimator, the
// TrustRank trust propagation — into a single multi-RHS stream (one CSR
// traversal per sweep under Jacobi; see pagerank/solver.h). Each fused
// lane is bit-identical to a standalone solve, so cached artifacts equal
// what each detector would have computed alone. Running spam mass AND
// TrustRank therefore costs one base PageRank solve, not two — the solve
// counters below let tests assert exactly that.

#ifndef SPAMMASS_PIPELINE_CONTEXT_H_
#define SPAMMASS_PIPELINE_CONTEXT_H_

#include <string>
#include <vector>

#include "core/degree_outlier.h"
#include "core/detector.h"
#include "core/spam_mass.h"
#include "core/trustrank.h"
#include "graph/graph_stats.h"
#include "obs/stage_timer.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "pipeline/graph_source.h"
#include "util/status.h"

namespace spammass::pipeline {

/// TrustRank-as-detector settings. PipelineContext::Prepare selects the
/// seeds with core::SelectTrustRankSeeds and propagates trust on a fused
/// forward lane; demotion turns the ranking signal into a verdict: within
/// T = {x : p̂_x ≥ ρ}, the `demote_fraction` of nodes with the lowest
/// trust/PageRank ratio are flagged (TrustRank itself never
/// *detects* spam — this is the comparison convention the benches use).
struct TrustRankDetectorConfig {
  uint32_t seed_candidates = 50;
  /// Discard seed candidates the oracle does not label good. Forced off
  /// when the graph carries no labels.
  bool filter_seeds_by_oracle = true;
  double demote_fraction = 0.25;
};

/// Configuration for one pipeline run: the shared solver settings plus
/// per-detector config structs, echoed verbatim into the run manifest.
struct PipelineConfig {
  /// One solver configuration for every PageRank-like solve of the run.
  pagerank::SolverOptions solver = pagerank::SolverOptions::BenchPreset();
  /// Estimated good fraction γ scaling the core jump (Section 3.5).
  double gamma = 0.85;
  /// False reproduces the failed unscaled first attempt of Section 4.3.
  bool scale_core_jump = true;
  /// Algorithm 2 thresholds (τ, ρ). ρ doubles as the population filter for
  /// the TrustRank demotion verdict so both detectors judge the same set.
  core::DetectorConfig detection;
  TrustRankDetectorConfig trustrank;
  core::DegreeOutlierConfig degree_outlier;
};

/// What a detector (or driver) needs computed. Fields are cumulative
/// requests, not exclusive modes; Union() merges detector sets.
struct ArtifactNeeds {
  bool base_pagerank = false;
  /// Spam mass estimates (implies base_pagerank; needs a good core).
  bool mass_estimates = false;
  /// TrustRank seeds + trust scores (implies base_pagerank for the
  /// trust/PageRank demotion ratio).
  bool trustrank = false;
  bool graph_stats = false;

  ArtifactNeeds Union(const ArtifactNeeds& other) const {
    return ArtifactNeeds{base_pagerank || other.base_pagerank,
                         mass_estimates || other.mass_estimates,
                         trustrank || other.trustrank,
                         graph_stats || other.graph_stats};
  }
};

/// Wall time of one pipeline stage, for the manifest. An alias of the
/// telemetry layer's record type: obs::ScopedStageTimer produces these
/// (and a matching trace span) wherever a stage is timed.
using StageTiming = obs::StageRecord;

/// Shared artifacts for one run over one graph. Not thread-safe (the
/// workspace inside parallelizes each solve; concurrent runs need one
/// context each). The referenced LoadedGraph and PipelineConfig must
/// outlive the context.
class PipelineContext {
 public:
  PipelineContext(const LoadedGraph& source, const PipelineConfig& config);

  PipelineContext(const PipelineContext&) = delete;
  PipelineContext& operator=(const PipelineContext&) = delete;

  const LoadedGraph& source() const { return *source_; }
  const graph::WebGraph& graph() const { return source_->web.graph; }
  const PipelineConfig& config() const { return *config_; }
  pagerank::SolverWorkspace* workspace() { return &workspace_; }

  /// Computes every requested artifact not already cached. Safe to call
  /// repeatedly — later calls only fill gaps; artifacts computed once are
  /// never recomputed. All forward solves requested together run as one
  /// fused multi-RHS stream.
  util::Status Prepare(const ArtifactNeeds& needs);

  bool has_base_pagerank() const { return has_base_pagerank_; }
  bool has_mass_estimates() const { return has_mass_estimates_; }
  bool has_trustrank() const { return has_trustrank_; }
  bool has_graph_stats() const { return has_graph_stats_; }

  /// Base PageRank p = PR(v), uniform v. CHECK-fails unless prepared.
  const pagerank::PageRankResult& BasePageRank() const;
  /// Spam mass estimates (Definition 3). CHECK-fails unless prepared.
  const core::MassEstimates& MassEstimates() const;
  /// TrustRank seeds + trust. CHECK-fails unless prepared.
  const core::TrustRankResult& TrustRank() const;
  /// Structural graph statistics. CHECK-fails unless prepared.
  const graph::GraphStats& GraphStats() const;

  /// Moves the mass estimates out (eval and RunDetectors keep them beyond
  /// the context's lifetime). The artifact leaves the cache; a later
  /// Prepare would recompute it.
  core::MassEstimates TakeMassEstimates();

  /// Times a base PageRank (uniform-jump) solve ran: the artifact-cache
  /// acceptance counter — two detectors sharing p must leave this at 1.
  uint64_t base_pagerank_solves() const { return base_pagerank_solves_; }
  /// Total solves through the workspace (fused lanes count individually).
  uint64_t total_solves() const { return workspace_.solve_count(); }

  /// Per-stage wall times accumulated by Prepare, for the manifest.
  const std::vector<StageTiming>& stage_timings() const {
    return stage_timings_;
  }
  /// Convergence telemetry per named solve ("base_pagerank",
  /// "core_pagerank", "trustrank_seed_selection", "trustrank"), in
  /// execution order, for the manifest. Each entry carries the lane's own
  /// convergence iteration (lanes of the fused multi-RHS solve converge
  /// independently) and, when config.solver.track_residuals is set, the
  /// full per-iteration residual curve.
  const std::vector<std::pair<std::string, pagerank::SolveStats>>&
  solve_stats() const {
    return solve_stats_;
  }

 private:
  const LoadedGraph* source_;
  const PipelineConfig* config_;
  pagerank::SolverWorkspace workspace_;

  bool has_base_pagerank_ = false;
  bool has_mass_estimates_ = false;
  bool has_trustrank_ = false;
  bool has_graph_stats_ = false;

  pagerank::PageRankResult base_pagerank_;
  core::MassEstimates mass_estimates_;
  core::TrustRankResult trustrank_;
  graph::GraphStats graph_stats_;

  uint64_t base_pagerank_solves_ = 0;
  std::vector<StageTiming> stage_timings_;
  std::vector<std::pair<std::string, pagerank::SolveStats>> solve_stats_;
};

}  // namespace spammass::pipeline

#endif  // SPAMMASS_PIPELINE_CONTEXT_H_
