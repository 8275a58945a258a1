// Immutable, compact web-graph representation (Section 2.1 of the paper):
// unweighted directed links between nodes (pages, hosts, or sites), no
// self-links, at most one link per ordered pair. Stored as CSR in both
// directions so that PageRank iterations and contribution analyses can scan
// either out-neighbors or in-neighbors sequentially.
//
// Storage model: every accessor reads through span *views*. For graphs
// built in memory the views point at the owned std::vector storage
// (SyncViews); for graphs loaded via the v2.2 mmap path
// (FromMappedSections) they point straight into a read-only file mapping
// and the vectors stay empty — the graph is then zero-copy and the page
// cache, not the heap, holds the arrays.

#ifndef SPAMMASS_GRAPH_WEB_GRAPH_H_
#define SPAMMASS_GRAPH_WEB_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spammass::util {
class MmapFile;
class ThreadPool;
}  // namespace spammass::util

namespace spammass::graph {

/// Node identifier; dense in [0, num_nodes).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Immutable directed graph in compressed-sparse-row form. Construct via
/// GraphBuilder (which normalizes edges), FromSortedEdges, or FromCsr for
/// trusted input. Both the forward (out-neighbor) and the transposed
/// (in-neighbor) adjacency are materialized.
class WebGraph {
 public:
  /// Empty graph.
  WebGraph() { SyncViews(); }

  WebGraph(const WebGraph&) = delete;
  WebGraph& operator=(const WebGraph&) = delete;
  // Moves transfer the vector heap buffers (or the file mapping), so the
  // copied span views remain valid in the destination.
  WebGraph(WebGraph&&) = default;
  WebGraph& operator=(WebGraph&&) = default;

  /// Builds from edges sorted by (source, target) with no duplicates and no
  /// self-loops; `num_nodes` must exceed every endpoint. Invariants are
  /// CHECK-enforced (use GraphBuilder for untrusted edge streams).
  static WebGraph FromSortedEdges(NodeId num_nodes,
                                  const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Adopts already-built forward CSR arrays and derives the transpose and
  /// the solver-support arrays from them, in parallel when `pool` is
  /// non-null. The arrays must satisfy ValidateCsr (graph_validate.h):
  /// offsets monotonically non-decreasing from 0 to targets.size(), every
  /// row strictly ascending with in-range targets, no self-links. Trusted
  /// input only — debug builds re-validate, release builds do not; callers
  /// ingesting untrusted bytes (the binary loader) must run ValidateCsr
  /// first. The derived arrays are bit-identical for every pool size,
  /// including none.
  static WebGraph FromCsr(NodeId num_nodes, std::vector<uint64_t> out_offsets,
                          std::vector<NodeId> targets,
                          util::ThreadPool* pool = nullptr);

  /// Adopts BOTH adjacency directions — the forward CSR and its transpose
  /// — and only derives the cheap solver-support arrays (inverse
  /// out-degrees, dangling list). This is ReadBinary's load path: no edge
  /// scan, no counting sort. Both array pairs must individually satisfy
  /// ValidateCsr and the in-arrays must be the exact transpose of the
  /// out-arrays; debug builds CHECK the full cross-consistency
  /// (ValidateGraph), release builds trust the caller.
  static WebGraph FromCsrPair(NodeId num_nodes,
                              std::vector<uint64_t> out_offsets,
                              std::vector<NodeId> targets,
                              std::vector<uint64_t> in_offsets,
                              std::vector<NodeId> sources,
                              util::ThreadPool* pool = nullptr);

  /// Zero-copy construction over sections of a read-only file mapping (the
  /// v2.2 load path, graph_io.h). All six arrays — both CSR directions plus
  /// the persisted derived arrays — are adopted as views into `mapping`,
  /// which the graph keeps alive. The caller (graph::ReadBinaryMmap) must
  /// have validated section sizes against the mapping bounds and the
  /// structural invariants per the v2.2 trust model (docs/graph_format.md);
  /// debug builds re-run the full O(n+m) ValidateGraph.
  static WebGraph FromMappedSections(
      NodeId num_nodes, std::span<const uint64_t> out_offsets,
      std::span<const NodeId> targets, std::span<const uint64_t> in_offsets,
      std::span<const NodeId> sources, std::span<const double> inv_out_degree,
      std::span<const NodeId> dangling_nodes,
      std::shared_ptr<const util::MmapFile> mapping);

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return targets_v_.size(); }

  /// Out-neighbors of x, sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId x) const {
    return {targets_v_.data() + out_offsets_v_[x],
            targets_v_.data() + out_offsets_v_[x + 1]};
  }

  /// In-neighbors of x, sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId x) const {
    return {sources_v_.data() + in_offsets_v_[x],
            sources_v_.data() + in_offsets_v_[x + 1]};
  }

  uint32_t OutDegree(NodeId x) const {
    return static_cast<uint32_t>(out_offsets_v_[x + 1] - out_offsets_v_[x]);
  }

  uint32_t InDegree(NodeId x) const {
    return static_cast<uint32_t>(in_offsets_v_[x + 1] - in_offsets_v_[x]);
  }

  /// True if the directed edge (x, y) exists; O(log outdeg(x)).
  bool HasEdge(NodeId x, NodeId y) const;

  /// A node with no outlinks ("dangling" in PageRank terms).
  bool IsDangling(NodeId x) const { return OutDegree(x) == 0; }

  /// Nodes with neither inlinks nor outlinks.
  bool IsIsolated(NodeId x) const {
    return OutDegree(x) == 0 && InDegree(x) == 0;
  }

  /// Returns the transposed graph (every edge reversed) as a new graph.
  /// `pool` parallelizes the derived-array rebuild when non-null. The
  /// result always owns heap storage, even when this graph is mapped.
  WebGraph Transposed(util::ThreadPool* pool = nullptr) const;

  /// Raw CSR views (offset arrays have num_nodes()+1 entries). Exposed for
  /// the invariant validators (graph_validate.h) and bulk kernels that scan
  /// the arrays directly.
  std::span<const uint64_t> OutOffsets() const { return out_offsets_v_; }
  std::span<const NodeId> Targets() const { return targets_v_; }
  std::span<const uint64_t> InOffsets() const { return in_offsets_v_; }
  std::span<const NodeId> Sources() const { return sources_v_; }

  /// Precomputed 1/outdeg(x) per node, exactly 0.0 for dangling nodes.
  /// Built once at construction so PageRank sweeps replace the per-edge
  /// division p[x]/outdeg(x) with a multiply (pagerank/kernel.h).
  std::span<const double> InvOutDegrees() const { return inv_out_degree_v_; }

  /// 1/outdeg(x), or 0.0 when x is dangling.
  double InvOutDegree(NodeId x) const { return inv_out_degree_v_[x]; }

  /// Ascending list of all dangling nodes (outdeg == 0), built once at
  /// construction so per-sweep dangling-mass sums scan |dangling| entries
  /// instead of all n nodes.
  std::span<const NodeId> DanglingNodes() const { return dangling_v_; }

  uint32_t num_dangling() const {
    return static_cast<uint32_t>(dangling_v_.size());
  }

  /// True when the CSR arrays are views into a file mapping
  /// (FromMappedSections) rather than owned heap vectors.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Size of the backing file mapping in bytes; 0 for heap graphs.
  uint64_t mapped_bytes() const;

  /// Bytes of the backing mapping currently resident in memory (mincore);
  /// 0 for heap graphs. Advisory — see util::MmapFile::ResidentBytes.
  uint64_t resident_bytes() const;

  /// Mapped vs. resident bytes of one array section of a mapped graph.
  struct SectionResidency {
    /// Section name as in the v2.2 format ("targets", "in_offsets", ...).
    const char* name;
    uint64_t mapped_bytes;
    uint64_t resident_bytes;
  };

  /// Per-section residency of the six mapped arrays, in file order.
  /// Empty for heap graphs. Advisory like resident_bytes(): the kernel may
  /// evict or fault pages between the probe and any use of the numbers.
  /// Sections sharing a page at their boundary each count that page's
  /// resident overlap (ResidentBytesInRange), so the per-section bytes sum
  /// to at most one page more than a whole-mapping probe per boundary.
  std::vector<SectionResidency> MappedSectionResidency() const;

  /// Optional per-node host names (empty when unset). When set, the vector
  /// has exactly num_nodes() entries.
  const std::vector<std::string>& host_names() const { return host_names_; }
  void set_host_names(std::vector<std::string> names);

  /// Host name of x, or "node<i>" when names are unset. When names are set
  /// the view points into the graph's name table and stays valid for the
  /// graph's lifetime; the synthesized fallback lives in a thread-local
  /// buffer that the next fallback HostName call on the same thread
  /// overwrites — copy it if it must outlive the expression.
  std::string_view HostName(NodeId x) const;

 private:
  friend class GraphBuilder;

  NodeId num_nodes_ = 0;
  // Owned storage for heap-built graphs; empty when mapped. CSR forward:
  // out_offsets_ has num_nodes_+1 entries; targets_ holds the concatenated
  // sorted out-neighbor lists. in_offsets_/sources_ are the transpose.
  std::vector<uint64_t> out_offsets_{0};
  std::vector<NodeId> targets_;
  std::vector<uint64_t> in_offsets_{0};
  std::vector<NodeId> sources_;
  // Derived solver-support arrays, kept consistent with the CSR arrays by
  // construction (graph_validate re-checks in debug builds).
  std::vector<double> inv_out_degree_;
  std::vector<NodeId> dangling_nodes_;

  // The views every accessor reads. SyncViews points them at the owned
  // vectors; FromMappedSections points them into mapping_.
  std::span<const uint64_t> out_offsets_v_;
  std::span<const NodeId> targets_v_;
  std::span<const uint64_t> in_offsets_v_;
  std::span<const NodeId> sources_v_;
  std::span<const double> inv_out_degree_v_;
  std::span<const NodeId> dangling_v_;

  // Keeps the file mapping alive for mapped graphs; null for heap graphs.
  std::shared_ptr<const util::MmapFile> mapping_;

  std::vector<std::string> host_names_;

  /// Re-points all views at the owned vectors. Must run after any build
  /// step that may have (re)allocated a vector and before accessors are
  /// used; every factory and build helper ends with it.
  void SyncViews();

  // Both builders produce output bit-identical to their serial versions
  // for every pool size: all scatter positions are computed exactly from
  // per-chunk counts, never raced, and per-chunk partial results are
  // combined in chunk order.
  void BuildTranspose(util::ThreadPool* pool = nullptr);
  void BuildDerivedArrays(util::ThreadPool* pool = nullptr);
};

/// Publishes the mapped graph's residency into the global MetricsRegistry:
/// gauges graph.mmap_mapped_bytes / graph.mmap_resident_bytes for the whole
/// mapping plus graph.mmap_resident_bytes.<section> per array section.
/// No-op for heap graphs. Called by the mmap load path and by telemetry
/// snapshots (CLI stats, manifest building) so exported metrics carry
/// residency at the moment of the snapshot, not just at load.
void PublishMappedResidency(const WebGraph& graph);

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_WEB_GRAPH_H_
