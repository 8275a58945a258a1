#include "pipeline/manifest.h"

#include "graph/web_graph.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "pagerank/solver.h"
#include "util/file_util.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace spammass::pipeline {

using util::JsonWriter;
using util::Status;

std::string BuildManifestJson(const ManifestInputs& inputs) {
  CHECK(inputs.source != nullptr);
  CHECK(inputs.config != nullptr);
  const LoadedGraph& source = *inputs.source;
  const PipelineConfig& config = *inputs.config;

  JsonWriter json;
  json.BeginObject();
  json.KV("schema_version", 3);
  json.KV("tool", "spammass_pipeline");

  json.Key("graph").BeginObject();
  json.KV("source", source.description);
  json.KV("format", GraphFormatToString(source.format));
  json.KV("nodes", static_cast<uint64_t>(source.web.graph.num_nodes()));
  json.KV("edges", source.web.graph.num_edges());
  json.KV("has_labels", source.has_labels);
  json.KV("good_core_size", static_cast<uint64_t>(source.good_core.size()));
  json.KV("load_seconds", source.load_seconds);
  json.KV("mmap", source.web.graph.is_mapped());
  json.EndObject();

  json.Key("config").BeginObject();
  json.Key("solver").BeginObject();
  // Jacobi is the one method; the key stays so the schema does not change.
  json.KV("method", "jacobi");
  json.KV("damping", config.solver.damping);
  json.KV("tolerance", config.solver.tolerance);
  json.KV("max_iterations", config.solver.max_iterations);
  json.KV("num_threads", config.solver.num_threads);
  json.KV("sweep_isa", pagerank::SweepIsa());
  json.EndObject();
  json.KV("gamma", config.gamma);
  json.KV("scale_core_jump", config.scale_core_jump);
  json.Key("detection").BeginObject();
  json.KV("relative_mass_threshold",
          config.detection.relative_mass_threshold);
  json.KV("scaled_pagerank_threshold",
          config.detection.scaled_pagerank_threshold);
  json.EndObject();
  json.Key("trustrank").BeginObject();
  json.KV("seed_candidates", config.trustrank.seed_candidates);
  json.KV("filter_seeds_by_oracle", config.trustrank.filter_seeds_by_oracle);
  json.KV("demote_fraction", config.trustrank.demote_fraction);
  json.EndObject();
  json.Key("degree_outlier").BeginObject();
  json.KV("overpopulation_factor",
          config.degree_outlier.overpopulation_factor);
  json.KV("min_degree", config.degree_outlier.min_degree);
  json.KV("min_bucket_size", config.degree_outlier.min_bucket_size);
  json.KV("use_indegree", config.degree_outlier.use_indegree);
  json.KV("use_outdegree", config.degree_outlier.use_outdegree);
  json.EndObject();
  json.EndObject();

  json.Key("stages").BeginArray();
  for (const StageTiming& stage : inputs.stages) {
    json.BeginObject();
    json.KV("name", stage.name);
    json.KV("seconds", stage.seconds);
    // Schema v3: per-stage hardware counts, present only when the host
    // could count (obs/perf_counters.h) — absent fields, never zeros.
    if (stage.hw.valid) {
      json.KV("cycles", stage.hw.cycles);
      json.KV("instructions", stage.hw.instructions);
      if (stage.hw.has_cache) {
        json.KV("llc_misses", stage.hw.llc_misses);
        json.KV("branch_misses", stage.hw.branch_misses);
      }
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("solver_runs").BeginObject();
  json.KV("base_pagerank_solves", inputs.base_pagerank_solves);
  json.KV("total_solves", inputs.total_solves);
  json.Key("iterations").BeginObject();
  for (const auto& [name, stats] : inputs.solve_stats) {
    json.KV(name, stats.iterations);
  }
  json.EndObject();
  json.EndObject();

  // Schema v2: per-solve convergence telemetry. The residual curve is
  // present only when the run tracked residuals
  // (SolverOptions::track_residuals / spammass_cli --record-convergence);
  // tools/plot_convergence.py renders it.
  json.Key("convergence").BeginArray();
  for (const auto& [name, stats] : inputs.solve_stats) {
    json.BeginObject();
    json.KV("name", name);
    json.KV("iterations", stats.iterations);
    json.KV("residual", stats.residual);
    json.KV("converged", stats.converged);
    if (!stats.residual_curve.empty()) {
      json.Key("residual_curve").BeginArray();
      for (double r : stats.residual_curve) json.Double(r);
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("detectors").BeginArray();
  if (inputs.detectors != nullptr) {
    for (const DetectorOutput& output : *inputs.detectors) {
      json.BeginObject();
      json.KV("name", output.detector);
      json.KV("flagged", output.flagged_count);
      json.KV("seconds", output.seconds);
      json.Key("metrics").BeginObject();
      for (const auto& [metric, value] : output.metrics) {
        json.KV(metric, value);
      }
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray();

  json.KV("total_seconds", inputs.total_seconds);

  // Schema v3: exit-time resource usage. Sampled fresh here and published
  // into the registry BEFORE the metrics snapshot below, so the embedded
  // "metrics" object carries the same final values. Groups degrade
  // independently (see obs/resource.h) — a group whose /proc source was
  // unreadable is absent from the object, not zeroed.
  const obs::ResourceUsage usage = obs::SampleResourceUsage();
  obs::PublishResourceUsage(usage);
  graph::PublishMappedResidency(source.web.graph);
  json.Key("resources").BeginObject();
  if (usage.has_memory) {
    json.KV("rss_bytes", usage.rss_bytes);
    json.KV("vm_bytes", usage.vm_bytes);
    json.KV("rss_peak_bytes", usage.rss_peak_bytes);
  }
  if (usage.has_faults) {
    json.KV("minor_faults", usage.minor_faults);
    json.KV("major_faults", usage.major_faults);
  }
  if (usage.has_io) {
    json.KV("io_read_bytes", usage.io_read_bytes);
    json.KV("io_write_bytes", usage.io_write_bytes);
  }
  if (source.web.graph.is_mapped()) {
    json.Key("mmap").BeginObject();
    json.KV("mapped_bytes", source.web.graph.mapped_bytes());
    json.KV("resident_bytes", source.web.graph.resident_bytes());
    json.Key("sections").BeginArray();
    for (const graph::WebGraph::SectionResidency& s :
         source.web.graph.MappedSectionResidency()) {
      json.BeginObject();
      json.KV("name", s.name);
      json.KV("mapped_bytes", s.mapped_bytes);
      json.KV("resident_bytes", s.resident_bytes);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  // A point-in-time snapshot of the process-global metrics registry
  // (schema v2). For a single-run process the pagerank.solves counter
  // equals solver_runs.total_solves — the acceptance check the CLI
  // integration test exercises.
  json.Key("metrics").RawValue(
      obs::MetricsRegistry::Global().SnapshotJson());

  json.EndObject();
  return json.TakeString();
}

Status WriteManifestFile(const std::string& json, const std::string& path) {
  return util::WriteTextFile(path, json + "\n");
}

}  // namespace spammass::pipeline
