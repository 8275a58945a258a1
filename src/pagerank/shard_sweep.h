// Sharded multi-RHS Jacobi sweeps over a host-range ShardPlan
// (graph/shard.h): each sweep first exchanges boundary rank — the scaled
// values of every cross-shard source — into per-shard ghost slots, then
// runs the kernel's own sweep body (kernel::PickSweepRange) over the
// plan's shard-local gather, so every shard touches only its own compact
// working set plus its ghost rows (ROADMAP item 3, out-of-core scale).
//
// Bit-identity argument (verified by the ParallelJacobiShard tests):
//   * The plan's sources_local array only REMAPS ids — edge positions are
//     untouched — so a sweep gathers exactly the same edge sequence as the
//     unsharded kernel.
//   * Ghost slots hold bitwise copies of the scaled values they stand in
//     for (the exchange phase is pure copies).
//   * The sweep keeps the kernel's global deterministic chunk
//     decomposition, and shard boundaries are aligned to the chunk size
//     (the plan is built with alignment = kernel::ChunkSize(n)), so no
//     residual-reduction chunk ever straddles a shard — splitting one
//     would re-associate its float sum.
// Hence scores AND residuals are bit-identical to the unsharded kernel for
// every shard count and every thread count.

#ifndef SPAMMASS_PAGERANK_SHARD_SWEEP_H_
#define SPAMMASS_PAGERANK_SHARD_SWEEP_H_

#include <cstdint>
#include <vector>

#include "graph/shard.h"
#include "graph/web_graph.h"
#include "pagerank/simd_sweep_body.h"

namespace spammass::util {
class ThreadPool;
}  // namespace spammass::util

namespace spammass::pagerank {

/// A ShardPlan bound to one graph plus the sweep loop that consumes it.
/// Built once per (graph, shard count) and cached by SolverWorkspace;
/// immutable after construction, so one runtime may serve concurrent
/// sweeps (each sweep's mutable state lives in caller buffers).
class ShardRuntime {
 public:
  /// Partitions `graph` into `num_shards` ranges aligned to the kernel's
  /// deterministic-reduction chunk size (see the bit-identity argument
  /// above). The graph must stay alive for the runtime's lifetime.
  ShardRuntime(const graph::WebGraph& graph, uint32_t num_shards);

  /// True when this runtime was built for this graph at this shard count —
  /// the workspace's cache-hit test. Checks identity (pointer), shape
  /// (n, m), and a bounded in-offset fingerprint, so a different graph
  /// reallocated at the same address misses.
  bool Matches(const graph::WebGraph& graph, uint32_t num_shards) const;

  const graph::ShardPlan& plan() const { return plan_; }
  uint32_t num_shards() const { return plan_.num_shards(); }

  /// Rows of the ghost-extended scaled buffers: num_nodes + total ghost
  /// slots. Callers size `scaled` and `next_scaled` as extended_rows() * k.
  uint64_t extended_rows() const {
    return static_cast<uint64_t>(plan_.num_nodes()) + plan_.total_ghosts();
  }

  /// One fused Jacobi sweep, semantically identical to
  /// kernel::WeightedJacobiSweepMulti with the default (scalar f64)
  /// variant, but gathering through the shard plan. `scaled` and
  /// `next_scaled` are ghost-extended (extended_rows() * k); rows [0, n)
  /// carry the usual scaled iterate and the ghost region is refreshed from
  /// them by the exchange phase at the start of every sweep, so its
  /// between-sweep contents are irrelevant (lane compaction safe). As in
  /// the kernel, `next` may equal `p` (an in-place sweep).
  void SweepMulti(const graph::WebGraph& graph, uint32_t k,
                  const simd::LaneJumps<double>& v, double damping,
                  const double* dangling, const double* p, double* scaled,
                  double* next, double* next_scaled,
                  std::vector<double>* partials, double* diffs,
                  util::ThreadPool* pool) const;

 private:
  const graph::WebGraph* graph_ = nullptr;
  graph::NodeId num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t fingerprint_ = 0;
  graph::ShardPlan plan_;
  // Per-sweep telemetry constants, summed once from the plan at
  // construction (the plan is immutable, so every sweep exchanges the
  // same boundary bytes and gathers the same ghost rows).
  uint64_t boundary_bytes_per_sweep_ = 0;
  uint64_t ghost_gathers_per_sweep_ = 0;
};

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_SHARD_SWEEP_H_
