// Reusable solver workspace: the thread pool and scratch buffers shared by
// repeated PageRank solves.
//
// Solves come in runs over one fixed graph (spam mass issues two,
// TrustRank two more, every bench/eval loop hundreds), so a
// SolverWorkspace keeps the pool and the iterate/scratch buffers across
// calls:
//
//   SolverWorkspace ws(/*num_threads=*/8);
//   auto p  = ComputePageRank(graph, v, options, &ws);   // pays setup
//   auto p2 = ComputePageRank(graph, w, options, &ws);   // reuses it all
//
// Lifetime rules:
//   * A workspace is graph-agnostic: buffers are sized on demand per solve,
//     so one workspace may serve solves over different graphs, interleaved
//     freely. Buffers never shrink, so peak memory is that of the largest
//     solve passed through.
//   * NOT thread-safe. One workspace serves one caller thread at a time
//     (the pool inside parallelizes each solve; concurrent solves need one
//     workspace each).
//   * The workspace only caches resources, never results: every solve
//     through a workspace returns bit-identical output to a fresh-state
//     solve with the same options.

#ifndef SPAMMASS_PAGERANK_WORKSPACE_H_
#define SPAMMASS_PAGERANK_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/cache_aligned.h"
#include "util/thread_pool.h"

namespace spammass::pagerank {

/// Reusable thread pool + scratch vectors for the solvers in solver.h.
class SolverWorkspace {
 public:
  /// Workspace with no pool yet; one is created lazily the first time a
  /// solve requests num_threads > 1.
  SolverWorkspace() = default;

  /// Workspace with a pool for `num_threads` pre-spawned (avoids paying
  /// thread startup inside the first timed solve).
  explicit SolverWorkspace(uint32_t num_threads) { EnsurePool(num_threads); }

  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  /// Returns a pool with exactly `num_threads` workers, creating or
  /// replacing the cached one as needed; returns nullptr for num_threads
  /// <= 1 (serial — the cached pool, if any, is kept for later).
  util::ThreadPool* EnsurePool(uint32_t num_threads);

  /// The cached pool (may be null). Exposed for callers that parallelize
  /// their own pre/post-processing around solves.
  util::ThreadPool* pool() const { return pool_.get(); }

  /// Worker count of the cached pool (0 when none exists).
  uint32_t pool_threads() const { return pool_threads_; }

  /// Number of solves that have run through this workspace (diagnostics).
  uint64_t solve_count() const { return solve_count_; }

  // Solver-internal scratch accessors. Contents are unspecified between
  // solves; each solve resizes what it needs. Exposed publicly so the
  // kernel-level tests and benches can drive sweeps directly. The
  // interleaved lane buffers are util::LaneVector: their data() is
  // cache-line aligned, so each gathered row touches the fewest lines.
  // The Jacobi sweeps update `iterate` in place.
  util::LaneVector<double>& iterate() { return iterate_; }
  util::LaneVector<double>& scaled() { return scaled_; }
  util::LaneVector<double>& scaled_next() { return scaled_next_; }
  std::vector<double>& node_partials() { return node_partials_; }
  std::vector<double>& dangling_partials() { return dangling_partials_; }

  /// Bumps the solve counter (called by the solvers).
  void RecordSolve() { ++solve_count_; }

 private:
  std::unique_ptr<util::ThreadPool> pool_;
  uint32_t pool_threads_ = 0;
  uint64_t solve_count_ = 0;

  // Interleaved k-wide buffers (n·k): the iterate, swept in place, and
  // the double-buffered scaled iterate (the sweep writes next_scaled
  // alongside the iterate, so the rescale pass runs once per solve, not
  // once per sweep). The jump vectors are not here: a sweep reads them
  // through a table over their supports (kernel::LaneJumpTable), built per
  // batch.
  util::LaneVector<double> iterate_;
  util::LaneVector<double> scaled_;
  util::LaneVector<double> scaled_next_;
  // Chunk-indexed partials for the deterministic reductions.
  std::vector<double> node_partials_;
  std::vector<double> dangling_partials_;
};

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_WORKSPACE_H_
