#include "graph/graph_validate.h"

#include <algorithm>
#include <string>

namespace spammass::graph {

using util::Status;

namespace {

std::string RowContext(const char* direction, NodeId row) {
  return std::string(direction) + "-adjacency row " + std::to_string(row);
}

}  // namespace

Status ValidateCsr(NodeId num_nodes, std::span<const uint64_t> offsets,
                   std::span<const NodeId> adjacency, const char* direction) {
  if (offsets.size() != static_cast<size_t>(num_nodes) + 1) {
    return Status::FailedPrecondition(
        std::string(direction) + "-offsets size " +
        std::to_string(offsets.size()) + " != num_nodes + 1 = " +
        std::to_string(static_cast<size_t>(num_nodes) + 1));
  }
  if (offsets.front() != 0) {
    return Status::FailedPrecondition(
        std::string(direction) + "-offsets must start at 0, got " +
        std::to_string(offsets.front()));
  }
  if (offsets.back() != adjacency.size()) {
    return Status::FailedPrecondition(
        std::string(direction) + "-offsets end at " +
        std::to_string(offsets.back()) + " but adjacency holds " +
        std::to_string(adjacency.size()) + " entries");
  }
  // Offsets first: monotone non-decreasing. Combined with the front/back
  // checks above this bounds every offset by adjacency.size(), which makes
  // the entry scan below safe even for hostile offset arrays (a huge
  // middle offset would otherwise walk the scan off the end of the
  // adjacency array before any per-entry check could fire).
  for (NodeId row = 0; row < num_nodes; ++row) {
    if (offsets[row] > offsets[row + 1]) {
      return Status::FailedPrecondition(
          RowContext(direction, row) + ": offsets decrease (" +
          std::to_string(offsets[row]) + " > " +
          std::to_string(offsets[row + 1]) + ")");
    }
  }
  // Entry scan. This runs on every checksummed v2.2 load, where the graph
  // is almost always clean, so the fast path folds all violations into
  // one flag with no data-dependent branches: an ascending compare per
  // adjacent pair, a self-loop compare per entry, and a range check on
  // the last entry only (strict ascent makes it the row maximum). A
  // dirty row is re-walked entry by entry to report the first offending
  // entry with the same diagnostics as always.
  for (NodeId row = 0; row < num_nodes; ++row) {
    const uint64_t begin = offsets[row];
    const uint64_t end = offsets[row + 1];
    if (begin == end) continue;
    unsigned bad = static_cast<unsigned>(adjacency[begin] == row) |
                   static_cast<unsigned>(adjacency[end - 1] >= num_nodes);
    for (uint64_t i = begin + 1; i < end; ++i) {
      bad |= static_cast<unsigned>(adjacency[i - 1] >= adjacency[i]) |
             static_cast<unsigned>(adjacency[i] == row);
    }
    if (bad == 0) continue;
    for (uint64_t i = begin; i < end; ++i) {
      const NodeId neighbor = adjacency[i];
      if (neighbor >= num_nodes) {
        return Status::FailedPrecondition(
            RowContext(direction, row) + ": neighbor " +
            std::to_string(neighbor) + " out of range [0, " +
            std::to_string(num_nodes) + ")");
      }
      if (neighbor == row) {
        return Status::FailedPrecondition(
            RowContext(direction, row) +
            ": self-loop (disallowed by the graph model, Section 2.1)");
      }
      if (i > begin && adjacency[i - 1] >= neighbor) {
        return Status::FailedPrecondition(
            RowContext(direction, row) + ": entries not strictly ascending (" +
            std::to_string(adjacency[i - 1]) + " then " +
            std::to_string(neighbor) + ")");
      }
    }
  }
  return Status::OK();
}

Status ValidateDerivedArrays(NodeId num_nodes,
                             std::span<const uint64_t> out_offsets,
                             std::span<const double> inv_out_degrees,
                             std::span<const NodeId> dangling_nodes) {
  if (out_offsets.size() != static_cast<size_t>(num_nodes) + 1) {
    return Status::FailedPrecondition(
        "out-offsets size " + std::to_string(out_offsets.size()) +
        " != num_nodes + 1 = " +
        std::to_string(static_cast<size_t>(num_nodes) + 1));
  }
  if (inv_out_degrees.size() != static_cast<size_t>(num_nodes)) {
    return Status::FailedPrecondition(
        "inv-out-degree array holds " +
        std::to_string(inv_out_degrees.size()) + " entries for " +
        std::to_string(num_nodes) + " nodes");
  }
  size_t dangling_cursor = 0;
  for (NodeId x = 0; x < num_nodes; ++x) {
    const uint64_t degree = out_offsets[x + 1] - out_offsets[x];
    if (degree == 0) {
      if (dangling_cursor >= dangling_nodes.size() ||
          dangling_nodes[dangling_cursor] != x) {
        return Status::FailedPrecondition(
            "dangling node " + std::to_string(x) +
            " missing from the dangling list (or list out of order)");
      }
      ++dangling_cursor;
      if (inv_out_degrees[x] != 0.0) {
        return Status::FailedPrecondition(
            "dangling node " + std::to_string(x) +
            " carries nonzero inverse out-degree " +
            std::to_string(inv_out_degrees[x]));
      }
    } else if (inv_out_degrees[x] != 1.0 / static_cast<double>(degree)) {
      // Exact comparison on purpose: the cached weight must be the very
      // IEEE quotient the kernels would otherwise compute per edge.
      return Status::FailedPrecondition(
          "node " + std::to_string(x) + ": inverse out-degree " +
          std::to_string(inv_out_degrees[x]) + " != 1/" +
          std::to_string(degree));
    }
  }
  if (dangling_cursor != dangling_nodes.size()) {
    return Status::FailedPrecondition(
        "dangling list holds " + std::to_string(dangling_nodes.size()) +
        " entries but only " + std::to_string(dangling_cursor) +
        " nodes are dangling");
  }
  return Status::OK();
}

Status ValidateGraph(const WebGraph& graph) {
  const NodeId n = graph.num_nodes();
  SPAMMASS_RETURN_NOT_OK(
      ValidateCsr(n, graph.OutOffsets(), graph.Targets(), "out"));
  SPAMMASS_RETURN_NOT_OK(
      ValidateCsr(n, graph.InOffsets(), graph.Sources(), "in"));
  SPAMMASS_RETURN_NOT_OK(ValidateDerivedArrays(
      n, graph.OutOffsets(), graph.InvOutDegrees(), graph.DanglingNodes()));

  if (graph.Targets().size() != graph.Sources().size()) {
    return Status::FailedPrecondition(
        "forward holds " + std::to_string(graph.Targets().size()) +
        " edges but transpose holds " +
        std::to_string(graph.Sources().size()));
  }
  // Every forward edge (x, y) must appear in the transpose. Rows are sorted
  // (verified above), so membership is a binary search; combined with equal
  // edge counts this makes the two directions exactly equivalent.
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y : graph.OutNeighbors(x)) {
      auto in = graph.InNeighbors(y);
      if (!std::binary_search(in.begin(), in.end(), x)) {
        return Status::FailedPrecondition(
            "edge (" + std::to_string(x) + ", " + std::to_string(y) +
            ") present in out-adjacency but missing from in-adjacency");
      }
    }
  }

  if (!graph.host_names().empty() &&
      graph.host_names().size() != static_cast<size_t>(n)) {
    return Status::FailedPrecondition(
        "host_names holds " + std::to_string(graph.host_names().size()) +
        " entries for " + std::to_string(n) + " nodes");
  }
  return Status::OK();
}

}  // namespace spammass::graph
