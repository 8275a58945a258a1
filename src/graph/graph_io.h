// Graph (de)serialization. Two formats:
//   * Text edge list — one "source target" pair per line, '#' comments,
//     interoperable with common web-graph dumps (e.g. WebGraph/SNAP style).
//   * Binary — the little-endian paged container, magic "SMWG" version 2.2
//     (WriteBinaryV22): a checksummed section table in a 4 KiB header page,
//     then both CSR directions, the derived solver arrays and the optional
//     host names, each 4 KiB-aligned with its own checksums. ReadBinaryMmap,
//     the one reader, validates it in full and backs a WebGraph zero-copy
//     by the mapped file. See docs/graph_format.md for the byte layout. The
//     older v1, v2.0 and v2.1 containers are no longer read or written; the
//     reader rejects them by name.
// Host names travel inside the binary when present; the companion
// "<id>\t<host>" text map remains available for the text format.

#ifndef SPAMMASS_GRAPH_GRAPH_IO_H_
#define SPAMMASS_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/web_graph.h"
#include "util/status.h"

namespace spammass::graph {

/// Writes "u v" lines (plus a size header comment). Output is assembled in
/// a large buffer via std::to_chars and flushed in ~1 MiB slabs.
util::Status WriteEdgeListText(const WebGraph& graph, const std::string& path);

/// Parses an edge list. Lines starting with '#' and blank lines are skipped;
/// node count is max id + 1 unless a "# nodes: N" header raises it.
/// Duplicate edges and self-loops in the file are normalized away.
util::Result<WebGraph> ReadEdgeListText(const std::string& path);

/// Writes the page-aligned v2.2 container for mmap loading: a 4 KiB header
/// page holding a checksummed section table, then every array — both CSR
/// directions plus the derived solver arrays (inverse out-degrees,
/// dangling list) and the optional host-name sections — at a 4 KiB-aligned
/// offset with full and bounded-sample FNV checksums per section; see
/// docs/graph_format.md for the layout and the v2.2 trust model.
util::Status WriteBinaryV22(const WebGraph& graph, const std::string& path);

/// Maps a v2.2 file and returns a WebGraph whose arrays are zero-copy
/// views into the mapping (WebGraph::is_mapped()). Every build validates
/// it in full before any array is handed out: the header page (magic,
/// section table, header checksum, all section bounds — so no access can
/// fault past EOF), every section's sample and full checksum, the dangling
/// section, both CSR directions (ValidateCsr: offsets monotone, ids < n,
/// rows sorted — the sweeps gather through the in-CSR, and the seed solve
/// over the WebGraph::Transposed() view gathers through the out-CSR) and
/// the derived arrays (ValidateDerivedArrays). So a corrupt file is an
/// error Status, never an out-of-bounds gather. Host names (when present)
/// are copied to the heap, and the out-CSR and name pages then leave the
/// process's RSS. A v1, v2.0 or v2.1 file fails with an InvalidArgument
/// that names its version. The file must not be rewritten while the graph
/// (or a view of it) is alive (docs/graph_format.md, "v2.2 trust model").
util::Result<WebGraph> ReadBinaryMmap(const std::string& path);

/// Writes "<id>\t<host_name>" lines for every node.
util::Status WriteHostNames(const WebGraph& graph, const std::string& path);

/// Reads a host-name map written by WriteHostNames and attaches it to
/// `graph`. Every node must be covered.
util::Status ReadHostNames(const std::string& path, WebGraph* graph);

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_GRAPH_IO_H_
