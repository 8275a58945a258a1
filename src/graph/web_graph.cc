#include "graph/web_graph.h"

#include <algorithm>

#include "graph/graph_validate.h"
#include "obs/metrics.h"
#include "util/debug.h"
#include "util/logging.h"
#include "util/mmap_file.h"

namespace spammass::graph {

void WebGraph::SyncViews() {
  out_offsets_v_ = out_offsets_;
  targets_v_ = targets_;
  in_offsets_v_ = in_offsets_;
  sources_v_ = sources_;
  inv_out_degree_v_ = inv_out_degree_;
  dangling_v_ = dangling_nodes_;
}

WebGraph WebGraph::FromSortedEdges(
    NodeId num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  WebGraph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  g.targets_.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    auto [u, v] = edges[i];
    CHECK_LT(u, num_nodes);
    CHECK_LT(v, num_nodes);
    CHECK_NE(u, v) << "self-links are disallowed (Section 2.1)";
    if (i > 0) {
      CHECK(edges[i - 1] < edges[i]) << "edges must be sorted and unique";
    }
    g.out_offsets_[u + 1]++;
    g.targets_.push_back(v);
  }
  for (size_t i = 1; i < g.out_offsets_.size(); ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }
  g.SyncViews();
  g.BuildTranspose();
  g.BuildDerivedArrays();
  DCHECK_OK(ValidateGraph(g));
  return g;
}

WebGraph WebGraph::FromMappedSections(
    NodeId num_nodes, std::span<const uint64_t> out_offsets,
    std::span<const NodeId> targets, std::span<const uint64_t> in_offsets,
    std::span<const NodeId> sources, std::span<const double> inv_out_degree,
    std::span<const NodeId> dangling_nodes,
    std::shared_ptr<const util::MmapFile> mapping) {
  CHECK(mapping != nullptr);
  CHECK_EQ(out_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  CHECK_EQ(in_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  CHECK_EQ(targets.size(), sources.size());
  CHECK_EQ(inv_out_degree.size(), static_cast<size_t>(num_nodes));
  WebGraph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_.clear();
  g.in_offsets_.clear();
  g.out_offsets_v_ = out_offsets;
  g.targets_v_ = targets;
  g.in_offsets_v_ = in_offsets;
  g.sources_v_ = sources;
  g.inv_out_degree_v_ = inv_out_degree;
  g.dangling_v_ = dangling_nodes;
  g.mapping_ = std::move(mapping);
  DCHECK_OK(ValidateGraph(g));
  return g;
}

uint64_t WebGraph::mapped_bytes() const {
  return mapping_ == nullptr ? 0 : mapping_->size();
}

uint64_t WebGraph::resident_bytes() const {
  return mapping_ == nullptr ? 0 : mapping_->ResidentBytes();
}

std::vector<WebGraph::SectionResidency> WebGraph::MappedSectionResidency()
    const {
  std::vector<SectionResidency> sections;
  if (mapping_ == nullptr) return sections;
  const uint8_t* base = mapping_->data();
  const auto probe = [&](const char* name, const void* data,
                         uint64_t length) {
    if (length == 0 || data == nullptr) {
      sections.push_back({name, 0, 0});
      return;
    }
    // Every view points into the mapping, so pointer arithmetic against
    // the base recovers the section's file offset.
    const uint64_t offset = static_cast<uint64_t>(
        reinterpret_cast<const uint8_t*>(data) - base);
    sections.push_back(
        {name, length, mapping_->ResidentBytesInRange(offset, length)});
  };
  probe("out_offsets", out_offsets_v_.data(), out_offsets_v_.size_bytes());
  probe("targets", targets_v_.data(), targets_v_.size_bytes());
  probe("in_offsets", in_offsets_v_.data(), in_offsets_v_.size_bytes());
  probe("sources", sources_v_.data(), sources_v_.size_bytes());
  probe("inv_out_degree", inv_out_degree_v_.data(),
        inv_out_degree_v_.size_bytes());
  probe("dangling", dangling_v_.data(), dangling_v_.size_bytes());
  return sections;
}

void WebGraph::BuildTranspose() {
  const uint64_t n = num_nodes_;
  in_offsets_.assign(n + 1, 0);
  sources_.assign(targets_.size(), 0);
  // The assigns above may reallocate; re-point the in-direction views (the
  // out-direction views feeding OutNeighbors below are already current).
  SyncViews();
  if (n == 0) return;

  for (NodeId v : targets_) in_offsets_[v + 1]++;
  for (size_t i = 1; i < in_offsets_.size(); ++i) {
    in_offsets_[i] += in_offsets_[i - 1];
  }
  std::vector<uint64_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : OutNeighbors(u)) {
      sources_[cursor[v]++] = u;
    }
  }
  // Out-neighbor lists are scanned in ascending source order, so each
  // in-neighbor list comes out sorted already.
}

void WebGraph::BuildDerivedArrays() {
  const uint64_t n = num_nodes_;
  inv_out_degree_.assign(n, 0.0);
  dangling_nodes_.clear();
  for (NodeId x = 0; x < num_nodes_; ++x) {
    const uint32_t d = OutDegree(x);
    if (d == 0) {
      dangling_nodes_.push_back(x);
    } else {
      inv_out_degree_[x] = 1.0 / d;
    }
  }
  SyncViews();
}

bool WebGraph::HasEdge(NodeId x, NodeId y) const {
  auto nbrs = OutNeighbors(x);
  return std::binary_search(nbrs.begin(), nbrs.end(), y);
}

WebGraph WebGraph::Transposed() const {
  WebGraph g;
  g.num_nodes_ = num_nodes_;
  // Copy through the views so mapped graphs transpose into heap storage.
  g.out_offsets_.assign(in_offsets_v_.begin(), in_offsets_v_.end());
  g.targets_.assign(sources_v_.begin(), sources_v_.end());
  g.in_offsets_.assign(out_offsets_v_.begin(), out_offsets_v_.end());
  g.sources_.assign(targets_v_.begin(), targets_v_.end());
  g.host_names_ = host_names_;
  g.SyncViews();
  g.BuildDerivedArrays();
  DCHECK_OK(ValidateGraph(g));
  return g;
}

void WebGraph::set_host_names(std::vector<std::string> names) {
  CHECK_EQ(names.size(), static_cast<size_t>(num_nodes_));
  host_names_ = std::move(names);
}

std::string_view WebGraph::HostName(NodeId x) const {
  CHECK_LT(x, num_nodes_);
  if (!host_names_.empty()) return host_names_[x];
  thread_local std::string fallback;
  fallback = "node";
  fallback += std::to_string(x);
  return fallback;
}

void PublishMappedResidency(const WebGraph& graph) {
  if (!graph.is_mapped()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("graph.mmap_mapped_bytes")
      ->Set(static_cast<double>(graph.mapped_bytes()));
  registry.GetGauge("graph.mmap_resident_bytes")
      ->Set(static_cast<double>(graph.resident_bytes()));
  // Cold path (one probe per load/snapshot), so the dynamic gauge names
  // are looked up rather than cached.
  for (const WebGraph::SectionResidency& s : graph.MappedSectionResidency()) {
    registry.GetGauge(std::string("graph.mmap_resident_bytes.") + s.name)
        ->Set(static_cast<double>(s.resident_bytes));
  }
}

}  // namespace spammass::graph
