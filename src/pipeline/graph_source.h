// GraphSource — the one way pipeline consumers obtain a web graph. A
// source describes where the graph comes from (a synthetic scenario, a
// file on disk, or an in-memory WebGraph) and Load() materializes it as a
// LoadedGraph: graph plus whatever ground truth travels with it (labels,
// good core, host names). On-disk files are format-sniffed by magic
// ("SMWG" → binary container, printable text → edge list), so every entry
// point — CLI subcommands, benches, examples — maps a v2.2 file zero-copy
// without opting in.

#ifndef SPAMMASS_PIPELINE_GRAPH_SOURCE_H_
#define SPAMMASS_PIPELINE_GRAPH_SOURCE_H_

#include <string>
#include <vector>

#include "graph/web_graph.h"
#include "synth/generator.h"
#include "synth/web_model.h"
#include "util/status.h"

namespace spammass::pipeline {

/// Where a loaded graph came from.
enum class GraphFormat { kSynthetic, kTextEdgeList, kBinary, kInMemory };

const char* GraphFormatToString(GraphFormat format);

/// Sniffs the on-disk format of a graph file by its leading bytes: the
/// binary container announces itself with the "SMWG" magic; a text edge
/// list starts with printable ASCII ('#' comments, digits, whitespace).
/// Anything else — including an empty file — is rejected rather than
/// guessed at, so a corrupt binary never reaches the text parser.
util::Result<GraphFormat> SniffGraphFormat(const std::string& path);

/// A materialized graph with its side data. The graph always lives in
/// `web.graph`; for synthetic sources the full SyntheticWeb (region
/// metadata, farms, anomaly attribution) is populated, for file and
/// in-memory sources only the members that side files provided are.
struct LoadedGraph {
  synth::SyntheticWeb web;
  GraphFormat format = GraphFormat::kInMemory;
  /// True when `web` carries the full generator metadata (regions, farms).
  bool is_synthetic = false;
  /// True when `web.labels` holds real ground truth (generator output or a
  /// labels file) rather than the all-good default.
  bool has_labels = false;
  /// Good core Ṽ⁺ for mass estimation: the assembled core for synthetic
  /// sources, the contents of the core file for file sources, else empty.
  std::vector<graph::NodeId> good_core;
  /// Human-readable provenance ("synthetic scale=1 seed=42", a file path).
  std::string description;
  double load_seconds = 0;

  const graph::WebGraph& graph() const { return web.graph; }
  const core::LabelStore& labels() const { return web.labels; }
};

/// A recipe for producing a LoadedGraph. Cheap to construct and copy;
/// the expensive work happens in Load().
class GraphSource {
 public:
  /// The canonical synthetic scenario (synth::Yahoo2004Scenario).
  static GraphSource Scenario(double scale, uint64_t seed);

  /// Any generator configuration.
  static GraphSource FromConfig(synth::WebModelConfig config);

  /// A graph file, format sniffed at load time (text edge list or binary).
  static GraphSource FromFile(std::string path);

  /// An already-built graph (tests, examples constructing paper figures).
  static GraphSource FromGraph(graph::WebGraph graph,
                               std::string description = "in-memory graph");

  /// Attaches a ground-truth label file ("<id>\t<label>" lines) to a file
  /// or in-memory source. Ignored for synthetic sources (they carry their
  /// own labels).
  GraphSource& WithLabelsFile(std::string path);

  /// Attaches a good-core node-list file. Ignored for synthetic sources.
  GraphSource& WithCoreFile(std::string path);

  /// Attaches a host-name map for text-format graphs (binary files embed
  /// names).
  GraphSource& WithHostNamesFile(std::string path);

  /// Uses an explicit in-memory good core (in-memory or file sources).
  GraphSource& WithGoodCore(std::vector<graph::NodeId> core);

  /// Vestigial: does nothing and returns *this, since every binary file
  /// source is mapped (graph::ReadBinaryMmap). It stays only because
  /// perfbench/perfbench.cc still calls it; it goes when the next benchmark
  /// change drops those calls.
  GraphSource& WithMmap();

  /// Materializes the graph. A binary file is mapped zero-copy
  /// (graph::ReadBinaryMmap); a text edge list is built on the heap by
  /// graph::GraphBuilder. Synthetic and file sources can be loaded
  /// repeatedly; an in-memory source is one-shot (WebGraph is move-only) —
  /// a second Load fails with FailedPrecondition.
  util::Result<LoadedGraph> Load();

 private:
  enum class Kind { kSynthetic, kFile, kInMemory };

  GraphSource() = default;

  Kind kind_ = Kind::kInMemory;
  synth::WebModelConfig config_;
  std::string path_;
  graph::WebGraph graph_;
  bool consumed_ = false;
  std::string description_;
  std::string labels_path_;
  std::string core_path_;
  std::string host_names_path_;
  std::vector<graph::NodeId> good_core_;
};

}  // namespace spammass::pipeline

#endif  // SPAMMASS_PIPELINE_GRAPH_SOURCE_H_
