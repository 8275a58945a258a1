#include "pipeline/graph_source.h"

#include <cctype>
#include <cstdio>
#include <utility>

#include "core/label_io.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "synth/scenario.h"
#include "util/logging.h"

namespace spammass::pipeline {

using util::Result;
using util::Status;

const char* GraphFormatToString(GraphFormat format) {
  switch (format) {
    case GraphFormat::kSynthetic:
      return "synthetic";
    case GraphFormat::kTextEdgeList:
      return "text";
    case GraphFormat::kBinary:
      return "binary";
    case GraphFormat::kInMemory:
      return "in-memory";
  }
  return "unknown";
}

Result<GraphFormat> SniffGraphFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open graph file: " + path);
  }
  unsigned char head[64];
  size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  if (got == 0) {
    return Status::InvalidArgument("empty graph file: " + path);
  }
  if (got >= 4 && head[0] == 'S' && head[1] == 'M' && head[2] == 'W' &&
      head[3] == 'G') {
    return GraphFormat::kBinary;
  }
  // A text edge list is '#' comments, digits and whitespace from byte one.
  // Demand printable ASCII across the sniffed window: a truncated binary
  // that lost its magic must not be handed to the text parser, whose
  // per-line errors would point users away from the real problem.
  for (size_t i = 0; i < got; ++i) {
    unsigned char c = head[i];
    if (c != '\n' && c != '\r' && c != '\t' && (c < 0x20 || c > 0x7e)) {
      return Status::InvalidArgument(
          "unrecognized graph file format (neither SMWG binary nor text "
          "edge list): " +
          path);
    }
  }
  return GraphFormat::kTextEdgeList;
}

GraphSource GraphSource::Scenario(double scale, uint64_t seed) {
  return FromConfig(synth::Yahoo2004Scenario(scale, seed));
}

GraphSource GraphSource::FromConfig(synth::WebModelConfig config) {
  GraphSource source;
  source.kind_ = Kind::kSynthetic;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "synthetic seed=%llu",
                static_cast<unsigned long long>(config.seed));
  source.description_ = buf;
  source.config_ = std::move(config);
  return source;
}

GraphSource GraphSource::FromFile(std::string path) {
  GraphSource source;
  source.kind_ = Kind::kFile;
  source.description_ = path;
  source.path_ = std::move(path);
  return source;
}

GraphSource GraphSource::FromGraph(graph::WebGraph graph,
                                   std::string description) {
  GraphSource source;
  source.kind_ = Kind::kInMemory;
  source.graph_ = std::move(graph);
  source.description_ = std::move(description);
  return source;
}

GraphSource& GraphSource::WithLabelsFile(std::string path) {
  labels_path_ = std::move(path);
  return *this;
}

GraphSource& GraphSource::WithCoreFile(std::string path) {
  core_path_ = std::move(path);
  return *this;
}

GraphSource& GraphSource::WithHostNamesFile(std::string path) {
  host_names_path_ = std::move(path);
  return *this;
}

GraphSource& GraphSource::WithGoodCore(std::vector<graph::NodeId> core) {
  good_core_ = std::move(core);
  return *this;
}

GraphSource& GraphSource::WithMmap() { return *this; }

namespace {

/// Post-load bookkeeping shared by every exit path: graph-shape gauges and
/// the load counter the metrics snapshot reports.
void RecordLoadMetrics(const LoadedGraph& loaded) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* loads = registry.GetCounter("graph.loads");
  static obs::Gauge* nodes = registry.GetGauge("graph.nodes");
  static obs::Gauge* edges = registry.GetGauge("graph.edges");
  static obs::Gauge* mapped = registry.GetGauge("graph.mapped_bytes");
  static obs::Gauge* resident = registry.GetGauge("graph.resident_bytes");
  loads->Increment();
  nodes->Set(static_cast<double>(loaded.web.graph.num_nodes()));
  edges->Set(static_cast<double>(loaded.web.graph.num_edges()));
  // 0/0 for heap-backed graphs; the residency sample is advisory (mincore
  // at one instant) but cheap enough to take on every load.
  mapped->Set(static_cast<double>(loaded.web.graph.mapped_bytes()));
  resident->Set(static_cast<double>(loaded.web.graph.resident_bytes()));
}

}  // namespace

Result<LoadedGraph> GraphSource::Load() {
  obs::ScopedStageTimer timer("graph_source_load", nullptr);
  timer.span().Arg("source", std::string_view(description_));
  LoadedGraph loaded;
  loaded.description = description_;

  switch (kind_) {
    case Kind::kSynthetic: {
      auto web = synth::GenerateWeb(config_);
      if (!web.ok()) return web.status();
      loaded.web = std::move(web.value());
      loaded.format = GraphFormat::kSynthetic;
      loaded.is_synthetic = true;
      loaded.has_labels = true;
      loaded.good_core = loaded.web.AssembledGoodCore();
      loaded.load_seconds = timer.Seconds();
      RecordLoadMetrics(loaded);
      return loaded;
    }
    case Kind::kFile: {
      auto format = SniffGraphFormat(path_);
      if (!format.ok()) return format.status();
      loaded.format = format.value();
      auto graph = loaded.format == GraphFormat::kBinary
                       ? graph::ReadBinaryMmap(path_)
                       : graph::ReadEdgeListText(path_);
      if (!graph.ok()) return graph.status();
      loaded.web.graph = std::move(graph.value());
      break;
    }
    case Kind::kInMemory:
      if (consumed_) {
        return Status::FailedPrecondition(
            "in-memory graph source already loaded (one-shot: WebGraph is "
            "move-only)");
      }
      loaded.web.graph = std::move(graph_);
      consumed_ = true;
      loaded.format = GraphFormat::kInMemory;
      break;
  }

  // Side data for file / in-memory sources.
  if (!host_names_path_.empty()) {
    util::Status status =
        graph::ReadHostNames(host_names_path_, &loaded.web.graph);
    if (!status.ok()) return status;
  }
  if (!labels_path_.empty()) {
    auto labels =
        core::ReadLabels(labels_path_, loaded.web.graph.num_nodes());
    if (!labels.ok()) return labels.status();
    loaded.web.labels = std::move(labels.value());
    loaded.has_labels = true;
  }
  if (!core_path_.empty()) {
    auto core =
        core::ReadNodeList(core_path_, loaded.web.graph.num_nodes());
    if (!core.ok()) return core.status();
    loaded.good_core = std::move(core.value());
  } else if (!good_core_.empty()) {
    for (graph::NodeId x : good_core_) {
      if (x >= loaded.web.graph.num_nodes()) {
        return Status::InvalidArgument("good-core node id out of range");
      }
    }
    loaded.good_core = good_core_;
  }
  loaded.load_seconds = timer.Seconds();
  RecordLoadMetrics(loaded);
  return loaded;
}

}  // namespace spammass::pipeline
