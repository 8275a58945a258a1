// Shared pieces of the multi-RHS Jacobi sweep: the argument block every
// sweep body reads, the jump-table cursor, the gather prefetch, the lane
// width table and the one scalar body. simd.cc instantiates
// ScalarSweepRange at every lane width 1..kMaxSweepLanes, as the
// reference and as the fallback on hosts without AVX2; simd_avx2.cc
// vectorizes the same expressions element-wise per lane, never
// reassociating a lane's accumulation, so both bodies give the same bits.
//
// No intrinsics live here (spammass_lint.py `simd-isolation` enforces
// that); this header is portable C++ plus the GCC/Clang
// `__builtin_prefetch`. simd_avx2.cc defines SPAMMASS_SIMD_VECTOR_TU
// before including it, which hides ScalarSweepRange from that TU, so the
// scalar reference is only ever compiled with the baseline ISA flags.

#ifndef SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_
#define SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "util/cache_aligned.h"

namespace spammass::graph {
/// Node identifier; identical to the WebGraph declaration (web_graph.h),
/// redeclared so the vector TU, compiled with -mavx2, includes no graph
/// header and so emits no copy of its inline functions.
using NodeId = uint32_t;
}  // namespace spammass::graph

namespace spammass::pagerank::simd {

using graph::NodeId;

/// Lane cap shared with kernel.h (static_assert-matched against
/// kernel::kMaxVectorsPerSweep in kernel.cc; redeclared here so the sweep
/// bodies do not need the full kernel header).
inline constexpr uint32_t kMaxSweepLanes = 16;

/// One compile-time instantiation per lane width: entry k − 1 is
/// `instantiate(std::integral_constant<uint32_t, k>{})` for k in
/// [1, kMaxSweepLanes]. Every sweep picker indexes such a table, so each
/// batch width the solver produces — lane compaction included — runs a
/// body whose lane loops have a constant trip count.
template <typename Fn, typename Instantiate>
constexpr std::array<Fn, kMaxSweepLanes> LaneWidthTable(
    Instantiate instantiate) {
  return [&]<uint32_t... I>(std::integer_sequence<uint32_t, I...>) {
    return std::array<Fn, kMaxSweepLanes>{
        instantiate(std::integral_constant<uint32_t, I + 1>{})...};
  }(std::make_integer_sequence<uint32_t, kMaxSweepLanes>{});
}

/// The k lanes' jump vectors of one batch, stored by their support (see
/// JumpVector): lane j holds fill[j] at every node outside `ids`, the
/// ascending union of the lanes' supports, and rows[i·k + j] at node
/// ids[i]. The core-based jumps are non-zero on a few percent of the
/// hosts, so this table replaces an n·k array a sweep would stream.
struct LaneJumps {
  const double* fill = nullptr;
  const NodeId* ids = nullptr;
  const double* rows = nullptr;
  uint64_t count = 0;
};

/// Reads a LaneJumps table alongside a sweep that visits nodes in
/// ascending order from `begin`: Row(y) is node y's K-lane jump row, the
/// same values an interleaved n·K array would hold at y·K.
template <uint32_t K>
class JumpCursor {
 public:
  JumpCursor(const LaneJumps& jumps, NodeId begin)
      : jumps_(jumps),
        next_(static_cast<uint64_t>(
            std::lower_bound(jumps.ids, jumps.ids + jumps.count, begin) -
            jumps.ids)) {}

  const double* Row(NodeId y) {
    if (next_ < jumps_.count && jumps_.ids[next_] == y) {
      return jumps_.rows + (next_++) * K;
    }
    return jumps_.fill;
  }

 private:
  LaneJumps jumps_;
  uint64_t next_;
};

/// Everything one sweep range needs, precomputed once per kernel call so
/// every body sees identical inputs. Lane j of node x lives at x·k + j in
/// each interleaved array.
struct SweepArgs {
  /// In-CSR: row y's in-neighbors are sources[in_offsets[y] ..
  /// in_offsets[y + 1]).
  const uint64_t* in_offsets = nullptr;
  const NodeId* sources = nullptr;
  /// Inverse out-degrees (0 for dangling nodes).
  const double* inv = nullptr;
  /// Jump vectors, by support.
  LaneJumps v;
  /// Damping factor c.
  double c = 0.0;
  /// Hoisted per-lane jump multiplier m[j] = (1−c) + c·dangling[j]:
  ///   c·(in_sum + vy·d) + (1−c)·vy  =  c·in_sum + vy·m.
  const double* m = nullptr;
  const double* p = nullptr;
  const double* scaled = nullptr;
  /// May equal `p`: a body reads row y of `p` only to compute row y, and
  /// reads it before storing row y of `next`, so the sweep can update the
  /// iterate in place.
  double* next = nullptr;
  /// Nullable: when set, receives next · inv (the pre-scaled iterate).
  double* next_scaled = nullptr;
};

/// Software-prefetch look-ahead of the gather, in edges. The source
/// ids are data-dependent, so the hardware prefetcher cannot follow the
/// gathered `scaled` rows; prefetching the row kPrefetchEdges edges ahead
/// overlaps the L3/DRAM misses of consecutive edges. A compile-time
/// constant, not an option: 64 beat 32 on the 16-lane sweep, matched it
/// on the k = 1 and k = 3 solves, and 128 was no better
/// (docs/performance.md, "Gather latency").
inline constexpr uint64_t kPrefetchEdges = 64;

/// Prefetches every cache line of the K-lane row of `scaled` that the
/// gather reads at edge e + kPrefetchEdges, unless that edge lies at or
/// past `edge_end` — the chunk's last edge, in_offsets[end] — so `sources`
/// is never read past the chunk. With the workspace's line-aligned buffers
/// a row whose size divides or is a multiple of the line never straddles
/// one, so its line starts suffice; other widths also prefetch the row's
/// last byte. A prefetch changes no value, only when the row arrives.
template <uint32_t K>
inline void PrefetchGatherRow(const double* scaled, const NodeId* sources,
                              uint64_t e, uint64_t edge_end) {
  if (e + kPrefetchEdges >= edge_end) return;
  constexpr uint64_t kRowBytes = uint64_t{K} * sizeof(double);
  constexpr uint64_t kLine = util::kCacheLineBytes;
  const char* row = reinterpret_cast<const char*>(
      scaled + static_cast<uint64_t>(sources[e + kPrefetchEdges]) * K);
  for (uint64_t b = 0; b < kRowBytes; b += kLine) __builtin_prefetch(row + b);
  if constexpr (kRowBytes % kLine != 0 && kLine % kRowBytes != 0) {
    __builtin_prefetch(row + kRowBytes - 1);
  }
}

#ifndef SPAMMASS_SIMD_VECTOR_TU
/// The scalar sweep over node range [begin, end) of K interleaved lanes:
///   out = c·in_sum + vy·m,  diff += |out − p|,  next_scaled = out·inv,
/// with in_sum accumulated edge by edge from 0.0. diff_slot[j] receives
/// the range's L1 difference for lane j.
template <uint32_t K>
void ScalarSweepRange(const SweepArgs& args, double* diff_slot, NodeId begin,
                      NodeId end) {
  static_assert(K >= 1 && K <= kMaxSweepLanes);
  const uint64_t* in_offsets = args.in_offsets;
  const NodeId* sources = args.sources;
  const double c = args.c;
  // Local copy: the stores to `next` may alias args.m as far as the
  // compiler knows, which would reload it for every node.
  double m[K];
  for (uint32_t j = 0; j < K; ++j) m[j] = args.m[j];
  const uint64_t edge_end = in_offsets[end];
  JumpCursor<K> jump(args.v, begin);
  double diff[K] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    double in_sum[K];
    for (uint32_t j = 0; j < K; ++j) in_sum[j] = 0.0;
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      PrefetchGatherRow<K>(args.scaled, sources, e, edge_end);
      const double* row = args.scaled + static_cast<uint64_t>(sources[e]) * K;
      for (uint32_t j = 0; j < K; ++j) in_sum[j] += row[j];
    }
    const double* vrow = jump.Row(y);
    const double* prow = args.p + static_cast<uint64_t>(y) * K;
    double* nrow = args.next + static_cast<uint64_t>(y) * K;
    if (args.next_scaled != nullptr) {
      const double w = args.inv[y];
      double* srow = args.next_scaled + static_cast<uint64_t>(y) * K;
      for (uint32_t j = 0; j < K; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
        srow[j] = out * w;
      }
    } else {
      for (uint32_t j = 0; j < K; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
      }
    }
  }
  for (uint32_t j = 0; j < K; ++j) diff_slot[j] = diff[j];
}
#endif  // SPAMMASS_SIMD_VECTOR_TU

/// Signature every sweep-range body (scalar or vectorized) satisfies.
using SweepRangeFn = void (*)(const SweepArgs&, double*, NodeId, NodeId);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_
