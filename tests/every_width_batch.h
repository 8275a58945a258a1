// A 16-lane jump batch whose lanes converge at 16 distinct sweeps, so a
// fused Jacobi solve compacts its working set through every batch width
// from 16 down to 1 — each width runs its own compile-time sweep body.
// Shared by the multi-vector, in-place-sweep and workspace bit-identity
// suites.

#ifndef SPAMMASS_TESTS_EVERY_WIDTH_BATCH_H_
#define SPAMMASS_TESTS_EVERY_WIDTH_BATCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
#include "pagerank/solver.h"

namespace spammass::testutil {

/// Lane j carries total mass 8^-j, so under an absolute tolerance of 1e-13
/// it needs a few more sweeps than lane j + 1. Even lanes jump
/// to a single node, odd lanes to a core of j + 1 nodes, so the lanes are
/// not scaled copies of one another. Needs n >= 76.
inline std::vector<pagerank::JumpVector> EveryWidthJumps(uint32_t n) {
  std::vector<pagerank::JumpVector> jumps;
  for (uint32_t j = 0; j < pagerank::kernel::kMaxVectorsPerSweep; ++j) {
    const double mass = std::ldexp(1.0, -3 * static_cast<int>(j));
    if (j % 2 == 0) {
      jumps.push_back(pagerank::JumpVector::SingleNode(n, 3 * j + 1, mass));
    } else {
      std::vector<graph::NodeId> core;
      for (graph::NodeId x = 0; x <= j; ++x) core.push_back(2 * j + 3 * x);
      jumps.push_back(pagerank::JumpVector::Core(n, core).Scaled(
          mass * n / static_cast<double>(core.size())));
    }
  }
  return jumps;
}

/// The batch widths a fused solve swept at: after each sweep the lanes
/// that converged are compacted out, so sweep i runs at the number of
/// lanes whose iteration count exceeds i.
inline std::set<uint32_t> CompactionWidths(
    const std::vector<pagerank::PageRankResult>& results) {
  int sweeps = 0;
  for (const pagerank::PageRankResult& r : results) {
    sweeps = std::max(sweeps, r.iterations);
  }
  std::set<uint32_t> widths;
  for (int i = 0; i < sweeps; ++i) {
    uint32_t live = 0;
    for (const pagerank::PageRankResult& r : results) {
      if (r.iterations > i) ++live;
    }
    widths.insert(live);
  }
  return widths;
}

/// {1, ..., kMaxVectorsPerSweep}: every width the sweep instantiates.
inline std::set<uint32_t> AllWidths() {
  std::set<uint32_t> widths;
  for (uint32_t k = 1; k <= pagerank::kernel::kMaxVectorsPerSweep; ++k) {
    widths.insert(k);
  }
  return widths;
}

}  // namespace spammass::testutil

#endif  // SPAMMASS_TESTS_EVERY_WIDTH_BATCH_H_
