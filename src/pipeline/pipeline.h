// Pipeline driver: load a graph from a GraphSource, prepare the union of
// the selected detectors' artifact needs in one fused pass, run each
// detector over the shared context, and assemble the run manifest. This
// is the entry point the CLI `run` subcommand, the examples and the
// benches call; eval/experiment.cc composes GraphSource + PipelineContext
// directly for its sampling-specific flow.

#ifndef SPAMMASS_PIPELINE_PIPELINE_H_
#define SPAMMASS_PIPELINE_PIPELINE_H_

#include <string>
#include <utility>
#include <vector>

#include "core/spam_mass.h"
#include "pipeline/context.h"
#include "pipeline/detector.h"
#include "pipeline/graph_source.h"
#include "pipeline/manifest.h"
#include "util/status.h"

namespace spammass::pipeline {

/// Result of one detection run over one graph.
struct PipelineRun {
  /// The loaded graph (moved in; host names available for reporting).
  LoadedGraph source;
  std::vector<DetectorOutput> detectors;
  std::vector<StageTiming> stages;
  uint64_t base_pagerank_solves = 0;
  uint64_t total_solves = 0;
  /// Per-solve convergence telemetry (iterations, residual, and — when
  /// config.solver.track_residuals is set — the residual curve).
  std::vector<std::pair<std::string, pagerank::SolveStats>> solve_stats;
  /// The run's mass estimates, moved out of the context after the
  /// detectors ran; empty unless a detector needed them.
  core::MassEstimates mass_estimates;
  double total_seconds = 0;
  /// The run manifest, already serialized (schema in docs/architecture.md).
  std::string manifest_json;
};

/// Runs the named detectors over an already-loaded graph. Fails on an
/// unknown detector name before any solve runs. `loaded` is moved into
/// the returned PipelineRun.
util::Result<PipelineRun> RunDetectors(
    LoadedGraph loaded, const PipelineConfig& config,
    const std::vector<std::string>& detector_names);

/// Convenience: Load() the source, then run. (Non-const: in-memory
/// sources are one-shot, see GraphSource::Load.)
util::Result<PipelineRun> RunDetectors(
    GraphSource& source, const PipelineConfig& config,
    const std::vector<std::string>& detector_names);

}  // namespace spammass::pipeline

#endif  // SPAMMASS_PIPELINE_PIPELINE_H_
