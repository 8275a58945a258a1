// Mutable edge accumulator that normalizes an untrusted edge stream into a
// WebGraph: duplicate links between the same ordered pair collapse into one
// edge (the paper collapses all hyperlinks between two hosts the same way,
// Section 4.1) and self-links are dropped (Section 2.1).

#ifndef SPAMMASS_GRAPH_GRAPH_BUILDER_H_
#define SPAMMASS_GRAPH_GRAPH_BUILDER_H_

#include <string>
#include <vector>

#include "graph/web_graph.h"

namespace spammass::graph {

/// Accumulates nodes and edges, then produces an immutable WebGraph.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  /// Pre-declares `num_nodes` nodes (ids [0, num_nodes)).
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Adds a new node and returns its id.
  NodeId AddNode();

  /// Adds a new node with a host name and returns its id.
  NodeId AddNode(std::string host_name);

  /// Ensures at least `n` nodes exist.
  void EnsureNodes(NodeId n);

  /// Records the directed link (from, to). Self-links are silently dropped;
  /// duplicates collapse at Build() time. Endpoints must already exist.
  void AddEdge(NodeId from, NodeId to);

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_pending_edges() const { return edges_.size(); }

  /// Sorts, dedupes and freezes into a WebGraph. The builder is left empty.
  WebGraph Build();

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<std::string> host_names_;
  bool any_names_ = false;
};

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_GRAPH_BUILDER_H_
