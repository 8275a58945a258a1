#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>

#include "graph/graph_validate.h"
#include "obs/trace.h"
#include "util/debug.h"
#include "util/logging.h"

namespace spammass::graph {

NodeId GraphBuilder::AddNode() {
  if (any_names_) host_names_.emplace_back();
  return num_nodes_++;
}

NodeId GraphBuilder::AddNode(std::string host_name) {
  if (!any_names_) {
    any_names_ = true;
    host_names_.resize(num_nodes_);
  }
  host_names_.push_back(std::move(host_name));
  return num_nodes_++;
}

void GraphBuilder::EnsureNodes(NodeId n) {
  if (n > num_nodes_) {
    if (any_names_) host_names_.resize(n);
    num_nodes_ = n;
  }
}

void GraphBuilder::AddEdge(NodeId from, NodeId to) {
  CHECK_LT(from, num_nodes_);
  CHECK_LT(to, num_nodes_);
  if (from == to) return;  // Self-links disallowed by the model.
  edges_.emplace_back(from, to);
}

WebGraph GraphBuilder::Build() {
  SPAMMASS_TRACE_SPAN("graph.build", "pending_edges",
                      static_cast<uint64_t>(edges_.size()), "nodes",
                      static_cast<uint64_t>(num_nodes_));
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  WebGraph g = WebGraph::FromSortedEdges(num_nodes_, edges_);
  if (any_names_) g.set_host_names(std::move(host_names_));
  edges_.clear();
  edges_.shrink_to_fit();
  host_names_.clear();
  any_names_ = false;
  num_nodes_ = 0;
  DCHECK_OK(ValidateGraph(g));
  return g;
}

}  // namespace spammass::graph
