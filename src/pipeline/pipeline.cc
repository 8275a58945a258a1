#include "pipeline/pipeline.h"

#include <memory>

#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace spammass::pipeline {

using util::Result;

Result<PipelineRun> RunDetectors(
    LoadedGraph loaded, const PipelineConfig& config,
    const std::vector<std::string>& detector_names) {
  obs::ScopedStageTimer total_timer("pipeline.run", nullptr);

  // Resolve every name before any solve: an unknown detector fails the
  // run without wasting a PageRank.
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.reserve(detector_names.size());
  for (const std::string& name : detector_names) {
    auto detector = DetectorRegistry::Global().Create(name);
    if (!detector.ok()) return detector.status();
    detectors.push_back(std::move(detector.value()));
  }

  PipelineContext context(loaded, config);
  ArtifactNeeds needs;
  for (const auto& detector : detectors) {
    needs = needs.Union(detector->Needs(context));
  }
  util::Status status = context.Prepare(needs);
  if (!status.ok()) return status;

  static obs::Counter* detector_runs_counter =
      obs::MetricsRegistry::Global().GetCounter("pipeline.detector_runs");
  PipelineRun run;
  for (const auto& detector : detectors) {
    obs::ScopedStageTimer timer("detector_run", nullptr);
    timer.span().Arg("detector", detector->name());
    detector_runs_counter->Increment();
    auto output = detector->Run(context);
    if (!output.ok()) return output.status();
    output.value().seconds = timer.Seconds();
    run.detectors.push_back(std::move(output.value()));
  }

  // The load stage predates this function (the source was loaded by the
  // caller), so it carries wall time only — no hardware counts.
  run.stages.push_back({"load", loaded.load_seconds, {}});
  for (const StageTiming& stage : context.stage_timings()) {
    run.stages.push_back(stage);
  }
  run.base_pagerank_solves = context.base_pagerank_solves();
  run.total_solves = context.total_solves();
  run.solve_stats = context.solve_stats();
  if (context.has_mass_estimates()) {
    run.mass_estimates = context.TakeMassEstimates();
  }
  run.total_seconds = total_timer.Seconds();

  ManifestInputs manifest;
  manifest.source = &loaded;
  manifest.config = &config;
  manifest.stages = run.stages;
  manifest.base_pagerank_solves = run.base_pagerank_solves;
  manifest.total_solves = run.total_solves;
  manifest.solve_stats = run.solve_stats;
  manifest.detectors = &run.detectors;
  manifest.total_seconds = run.total_seconds;
  run.manifest_json = BuildManifestJson(manifest);

  run.source = std::move(loaded);
  return run;
}

Result<PipelineRun> RunDetectors(
    GraphSource& source, const PipelineConfig& config,
    const std::vector<std::string>& detector_names) {
  auto loaded = source.Load();
  if (!loaded.ok()) return loaded.status();
  return RunDetectors(std::move(loaded.value()), config, detector_names);
}

}  // namespace spammass::pipeline
