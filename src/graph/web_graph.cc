#include "graph/web_graph.h"

#include <algorithm>
#include <numeric>

#include "graph/graph_validate.h"
#include "obs/metrics.h"
#include "util/debug.h"
#include "util/logging.h"
#include "util/mmap_file.h"

namespace spammass::graph {

namespace {

// The heap block behind a built graph, or behind a transposed view's
// derived arrays (then `base` keeps the viewed graph's arrays alive).
struct HeapArrays {
  std::vector<uint64_t> out_offsets;
  std::vector<NodeId> targets;
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> sources;
  std::vector<double> inv_out_degree;
  std::vector<NodeId> dangling;
  std::shared_ptr<const void> base;
};

// Fills in_offsets/sources from the out-CSR. Out-neighbor lists are
// scanned in ascending source order, so each in-neighbor list comes out
// sorted already.
void BuildTranspose(NodeId num_nodes, HeapArrays* a) {
  a->in_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  a->sources.assign(a->targets.size(), 0);
  for (NodeId v : a->targets) a->in_offsets[v + 1]++;
  std::partial_sum(a->in_offsets.begin(), a->in_offsets.end(),
                   a->in_offsets.begin());
  std::vector<uint64_t> cursor(a->in_offsets.begin(), a->in_offsets.end() - 1);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (uint64_t e = a->out_offsets[u]; e < a->out_offsets[u + 1]; ++e) {
      a->sources[cursor[a->targets[e]]++] = u;
    }
  }
}

// 1/outdeg(x) per node (exactly 0.0 when dangling) and the ascending list
// of dangling nodes, from the out-offsets.
void BuildDerivedArrays(std::span<const uint64_t> out_offsets,
                        HeapArrays* a) {
  const NodeId n = static_cast<NodeId>(out_offsets.size() - 1);
  a->inv_out_degree.assign(n, 0.0);
  for (NodeId x = 0; x < n; ++x) {
    const auto d = static_cast<uint32_t>(out_offsets[x + 1] - out_offsets[x]);
    if (d == 0) {
      a->dangling.push_back(x);
    } else {
      a->inv_out_degree[x] = 1.0 / d;
    }
  }
}

}  // namespace

WebGraph WebGraph::FromSortedEdges(
    NodeId num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  auto a = std::make_shared<HeapArrays>();
  a->out_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  a->targets.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    auto [u, v] = edges[i];
    CHECK_LT(u, num_nodes);
    CHECK_LT(v, num_nodes);
    CHECK_NE(u, v) << "self-links are disallowed (Section 2.1)";
    if (i > 0) {
      CHECK(edges[i - 1] < edges[i]) << "edges must be sorted and unique";
    }
    a->out_offsets[u + 1]++;
    a->targets.push_back(v);
  }
  std::partial_sum(a->out_offsets.begin(), a->out_offsets.end(),
                   a->out_offsets.begin());
  BuildTranspose(num_nodes, a.get());
  BuildDerivedArrays(a->out_offsets, a.get());
  WebGraph g(num_nodes, a->out_offsets, a->targets, a->in_offsets,
             a->sources, a->inv_out_degree, a->dangling, a);
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
  WebGraph g(num_nodes, out_offsets, targets, in_offsets, sources,
             inv_out_degree, dangling_nodes, mapping);
  g.mapping_ = mapping.get();
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
  probe("out_offsets", out_offsets_.data(), out_offsets_.size_bytes());
  probe("targets", targets_.data(), targets_.size_bytes());
  probe("in_offsets", in_offsets_.data(), in_offsets_.size_bytes());
  probe("sources", sources_.data(), sources_.size_bytes());
  probe("inv_out_degree", inv_out_degree_.data(),
        inv_out_degree_.size_bytes());
  probe("dangling", dangling_.data(), dangling_.size_bytes());
  return sections;
}

bool WebGraph::HasEdge(NodeId x, NodeId y) const {
  auto nbrs = OutNeighbors(x);
  return std::binary_search(nbrs.begin(), nbrs.end(), y);
}

WebGraph WebGraph::Transposed() const {
  auto a = std::make_shared<HeapArrays>();
  BuildDerivedArrays(in_offsets_, a.get());
  a->base = owner_;
  WebGraph t(num_nodes_, in_offsets_, sources_, out_offsets_, targets_,
             a->inv_out_degree, a->dangling, a);
  t.host_names_ = host_names_;
  DCHECK_OK(ValidateGraph(t));
  return t;
}

const std::vector<std::string>& WebGraph::host_names() const {
  static const std::vector<std::string> kNone;
  return host_names_ == nullptr ? kNone : *host_names_;
}

void WebGraph::set_host_names(std::vector<std::string> names) {
  CHECK_EQ(names.size(), static_cast<size_t>(num_nodes_));
  host_names_ =
      std::make_shared<const std::vector<std::string>>(std::move(names));
}

std::string_view WebGraph::HostName(NodeId x) const {
  CHECK_LT(x, num_nodes_);
  if (host_names_ != nullptr) return (*host_names_)[x];
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
