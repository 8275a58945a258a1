// Graph (de)serialization. Two formats:
//   * Text edge list — one "source target" pair per line, '#' comments,
//     interoperable with common web-graph dumps (e.g. WebGraph/SNAP style).
//   * Binary — little-endian container (magic "SMWG"). Version 2 dumps
//     both CSR directions (forward offsets/targets, transposed
//     offsets/sources, optional host-name blob) as a handful of bulk
//     writes with a trailing interleaved-FNV checksum, and loads them back
//     into WebGraph without re-materializing an edge-pair list, re-sorting,
//     or rebuilding the transpose; see docs/graph_format.md for the byte
//     layout. Format 2.1 adds an optional checksummed delta+varint
//     compressed in-adjacency section (csr_codec.h) between the CSR arrays
//     and the names; files without it remain byte-identical to 2.0
//     output. Format 2.2 (WriteBinaryV22) is the page-aligned *paged*
//     layout: a section table in a 4 KiB header page, every array stored
//     4 KiB-aligned with per-section checksums, so ReadBinaryMmap can back
//     a WebGraph zero-copy by the mapped file and load in O(1) instead of
//     O(n+m). Version 1 (per-row records, no checksum, no names) is still
//     readable for migration.
// Host names travel inside the v2 binary when present; the companion
// "<id>\t<host>" text map remains available for the text format.

#ifndef SPAMMASS_GRAPH_GRAPH_IO_H_
#define SPAMMASS_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/web_graph.h"
#include "util/status.h"

namespace spammass::util {
class ThreadPool;
}  // namespace spammass::util

namespace spammass::graph {

/// Writes "u v" lines (plus a size header comment). Output is assembled in
/// a large buffer via std::to_chars and flushed in ~1 MiB slabs.
util::Status WriteEdgeListText(const WebGraph& graph, const std::string& path);

/// Parses an edge list. Lines starting with '#' and blank lines are skipped;
/// node count is max id + 1 unless a "# nodes: N" header raises it.
/// Duplicate edges and self-loops in the file are normalized away. `pool`
/// parallelizes the final sort/dedup/CSR build for large inputs.
util::Result<WebGraph> ReadEdgeListText(const std::string& path,
                                        util::ThreadPool* pool = nullptr);

/// Writes the current binary container (magic "SMWG", version 2): both CSR
/// directions and, when the graph carries them, the compressed
/// in-adjacency section (format 2.1) and the host-name blob, ending in a
/// whole-file checksum.
util::Status WriteBinary(const WebGraph& graph, const std::string& path);

/// Writes the page-aligned v2.2 container for mmap loading: a 4 KiB header
/// page holding a checksummed section table, then every array — both CSR
/// directions plus the derived solver arrays (inverse out-degrees,
/// dangling list) and the optional host-name sections — at a 4 KiB-aligned
/// offset with full and bounded-sample FNV checksums per section. The
/// compressed in-adjacency is NOT persisted (rebuild on demand with
/// BuildCompressedInAdjacency); see docs/graph_format.md for the layout
/// and the v2.2 trust model.
util::Status WriteBinaryV22(const WebGraph& graph, const std::string& path);

/// Maps a v2.2 file and returns a WebGraph whose arrays are zero-copy
/// views into the mapping (WebGraph::is_mapped()). The header page is
/// validated (magic, section table, header checksum, all section bounds —
/// so no access can fault past EOF), each section's bounded head/tail
/// sample checksum is verified, the small dangling section is fully
/// validated, and both CSR directions are validated in full (ValidateCsr:
/// offsets monotone, ids < n, rows sorted): the sweeps gather through the
/// in-CSR, and through the out-CSR once WebGraph::Transposed() copies it.
/// So a corrupt file is an InvalidArgument, never an out-of-bounds
/// gather. That is the only O(n+m) step. Debug builds additionally verify
/// every full-section checksum and validate the derived arrays. Host
/// names (when present) are copied to the heap. Fails with
/// InvalidArgument on v1/v2.0/v2.1 files — those load via ReadBinary.
util::Result<WebGraph> ReadBinaryMmap(const std::string& path);

/// Writes the legacy version-1 container (per-row degree + target records,
/// no checksum, no host names). Kept only as a fixture for migration
/// tests and the v1-vs-v2 load benchmarks; new code writes v2.
util::Status WriteBinaryV1(const WebGraph& graph, const std::string& path);

/// Reads a binary graph written by WriteBinary (v2), WriteBinaryV22, or
/// WriteBinaryV1, always into heap-owned storage. Version 2 payloads are
/// checksum-verified and structurally validated (ValidateCsr on both
/// directions), then adopted directly as the graph's CSR arrays; only the
/// cheap derived solver arrays are rebuilt — in parallel when `pool` is
/// non-null. v2.2 files take the same full-validation path (every section
/// checksum verified, both CSR directions validated) with the arrays
/// copied out of a temporary mapping — use ReadBinaryMmap for the
/// zero-copy load.
util::Result<WebGraph> ReadBinary(const std::string& path,
                                  util::ThreadPool* pool = nullptr);

/// Writes "<id>\t<host_name>" lines for every node.
util::Status WriteHostNames(const WebGraph& graph, const std::string& path);

/// Reads a host-name map written by WriteHostNames and attaches it to
/// `graph`. Every node must be covered.
util::Status ReadHostNames(const std::string& path, WebGraph* graph);

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_GRAPH_IO_H_
