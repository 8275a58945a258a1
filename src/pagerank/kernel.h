// High-throughput PageRank sweep kernels.
//
// Every detector in the paper (spam mass §4.2, TrustRank, the naive schemes
// of §3.1, contribution analysis) funnels through repeated PageRank solves
// over one fixed graph, so this layer optimizes the per-sweep work that the
// solvers in solver.cc share:
//
//   * Division-free sweeps. The CSR gather Σ_x p[x]/outdeg(x) hides an
//     integer division + convert per edge visit. The kernel instead scales
//     the iterate once per node per sweep — scaled[x] = p[x]·inv_out[x],
//     with inv_out cached on the WebGraph at build time — so the edge loop
//     is a pure gather-add.
//   * Multi-vector (multi-RHS) sweeps. k score vectors stored interleaved
//     (value of vector j at node x lives at x·k + j) advance through ONE
//     CSR traversal per sweep, amortizing the dominant cost — graph memory
//     traffic — across solves. Spam mass's p/p′ pair is the k = 2 case.
//     The per-vector arithmetic is independent of k (the j-loop only adds
//     lanes), so a k-vector solve is bit-identical to k separate solves.
//   * Deterministic parallel reductions. All floating-point reductions
//     (residuals, dangling-mass sums, norms) are chunked by a decomposition
//     that depends only on the element count — never on the thread count —
//     with per-chunk partials summed in chunk order. Scores AND residuals
//     are therefore bit-identical across 1/2/…/N threads, and the iteration
//     count (which compares residuals against the tolerance) cannot drift
//     with parallelism.
//   * One sweep body per lane width, picked at runtime. Each call runs the
//     AVX2 body when the CPU has AVX2 and the portable scalar body
//     otherwise (simd.h); the two are bitwise equal, so results never
//     depend on the host's instruction set.
//
// The functions here are stateless building blocks; scratch buffers and the
// thread pool live in SolverWorkspace (workspace.h). Dangling handling is
// expressed by the `dangling` weights passed in: a zero weight reproduces
// DanglingPolicy::kLeak exactly (x + 0.0 == x for the non-negative values
// involved), a dangling-mass sum reproduces kRedistributeToJump.

#ifndef SPAMMASS_PAGERANK_KERNEL_H_
#define SPAMMASS_PAGERANK_KERNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/simd.h"
#include "util/thread_pool.h"

namespace spammass::pagerank::kernel {

/// Maximum number of interleaved vectors one sweep advances. Callers batch
/// larger multi-solves into groups of at most this many (the solver does
/// this transparently); the cap keeps per-thread accumulators on the stack.
inline constexpr uint32_t kMaxVectorsPerSweep = 16;

/// Deterministic chunk decomposition: chunk size is a function of `total`
/// alone (never the worker count), so per-chunk partial sums reduce to
/// bit-identical totals for every thread count. At most kMaxChunks chunks;
/// at least kMinChunkSize elements per chunk so tiny inputs don't drown in
/// task overhead.
inline constexpr uint64_t kMinChunkSize = 256;
inline constexpr uint64_t kMaxChunks = 64;

/// Chunk size for `total` elements under the deterministic policy.
uint64_t ChunkSize(uint64_t total);

/// Number of chunks for `total` elements (0 when total == 0).
uint64_t NumChunks(uint64_t total);

/// Runs body(chunk_index, begin, end) over [0, total) under the
/// deterministic decomposition — serially in chunk order when `pool` is
/// null, via ThreadPool::ParallelForChunked otherwise. The work performed
/// per chunk is identical either way.
void ForEachChunk(util::ThreadPool* pool, uint64_t total,
                  const std::function<void(uint64_t, uint64_t, uint64_t)>& body);

/// Deterministic chunked reduction: returns Σ over [0, total) where
/// `range_sum(begin, end)` yields one range's contribution (accumulated
/// left to right inside the range). `partials` is caller-owned scratch,
/// resized to NumChunks(total); partial sums are combined in chunk order,
/// so the result is bit-identical for every thread count.
double DeterministicSum(
    util::ThreadPool* pool, uint64_t total,
    const std::function<double(uint64_t, uint64_t)>& range_sum,
    std::vector<double>* partials);

/// Per-sweep scaling pass: scaled[x·k + j] = p[x·k + j] · inv_out[x] for
/// every node x and lane j, with inv_out the graph's cached inverse
/// out-degrees (0.0 on dangling nodes). n·k multiplies replace one divide
/// per edge visit in the sweep proper.
void ScaleByInvOutDegree(const graph::WebGraph& graph, uint32_t k,
                         const double* p, double* scaled,
                         util::ThreadPool* pool);

/// Per-lane dangling-mass sums over the graph's cached dangling-node list:
/// sums[j] = Σ_{x dangling} p[x·k + j]. Deterministic chunked reduction;
/// `partials` is caller-owned scratch (resized to NumChunks(|dangling|)·k).
void DanglingSums(const graph::WebGraph& graph, uint32_t k, const double* p,
                  std::vector<double>* partials, double* sums,
                  util::ThreadPool* pool);

/// Owning storage behind a simd::LaneJumps view of k lanes: `fill` holds
/// k values and `rows` ids.size()·k, so the table costs O(k·|support|),
/// never O(n·k).
struct LaneJumpTable {
  std::vector<double> fill;
  std::vector<graph::NodeId> ids;
  std::vector<double> rows;

  simd::LaneJumps View() const {
    return {fill.data(), ids.data(), rows.data(), ids.size()};
  }
};

/// The LaneJumps table of `jumps` (1..kMaxVectorsPerSweep vectors of one
/// dimension): `ids` is the union of their supports, and every entry is
/// bitwise (*jumps[j])[x].
LaneJumpTable BuildLaneJumps(const std::vector<const JumpVector*>& jumps);

/// One weighted Jacobi sweep advancing k interleaved vectors (k in
/// [1, kMaxVectorsPerSweep]):
///
///   next[y·k+j] = c·(Σ_{x ∈ In(y)} scaled[x·k+j] + v_j[y]·dangling[j])
///                 + (1−c)·v_j[y],
///
/// where v_j is lane j of the jump table `v` and `scaled` is the
/// ScaleByInvOutDegree output for `p`. The gather reads only `scaled`, and
/// row y of `p` is read only to compute row y, so `next` may equal `p`:
/// the Jacobi solver sweeps its iterate in place. Every lane is
/// advanced; when a lane converges mid-batch the solver compacts it out of
/// the interleaved working set entirely (solver.cc), so a finished vector
/// costs nothing instead of riding along frozen. The per-lane arithmetic —
/// accumulation order included — does not depend on k, which is what makes
/// a fused lane bit-identical to a standalone solve. diffs[j] receives the
/// deterministic L1 difference Σ_y |next − p| for lane j. `partials` is
/// caller-owned scratch (resized to NumChunks(n)·k).
///
/// When `next_scaled` is non-null the output loop also writes
/// next_scaled[y·k+j] = next[y·k+j] · inv_out[y] — exactly the values
/// ScaleByInvOutDegree(next) would produce — so iterative callers skip the
/// separate full-pass rescale between sweeps (the solver seeds `scaled`
/// once before the first sweep and double-buffers from then on).
///
/// The body is simd::PickSweep(simd::Active(), k), chosen once per call;
/// every body computes the same bits.
void WeightedJacobiSweepMulti(const graph::WebGraph& graph, uint32_t k,
                              const simd::LaneJumps& v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              util::ThreadPool* pool);

}  // namespace spammass::pagerank::kernel

#endif  // SPAMMASS_PAGERANK_KERNEL_H_
