// Shared sweep-loop body for every (precision, lane-width) variant of the
// non-default multi-RHS Jacobi sweeps. simd.cc instantiates the scalar
// body at every lane width 1..kMaxSweepLanes for both precisions, as the
// reference and as the fallback for widths the vector backends do not
// cover; simd_avx2.cc / simd_neon.cc provide hand-vectorized
// overrides registered through simd.h. Keeping the loop in one header
// guarantees every scalar variant computes the exact expressions
// documented in kernel.h — specializations only unroll or vectorize
// element-wise, never reassociate a lane's accumulation order.
//
// No intrinsics live here (spammass_lint.py `simd-isolation` enforces
// that); this header is portable C++ plus the GCC/Clang
// `__builtin_prefetch`. simd_avx2.cc defines
// SPAMMASS_SIMD_VECTOR_TU before including it, which hides
// ScalarSweepRange from that TU: it is compiled with -mfma, and C++'s
// default -ffp-contract=fast would contract a scalar instantiation there
// into FMA and break its bit-identity with the baseline-ISA build.

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
/// redeclared so the vector TUs, compiled with -mavx2 -mfma, include no
/// graph header and so emit no copy of its inline functions.
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
template <typename Real>
struct LaneJumps {
  const Real* fill = nullptr;
  const NodeId* ids = nullptr;
  const Real* rows = nullptr;
  uint64_t count = 0;
};

/// Reads a LaneJumps table alongside a sweep that visits nodes in
/// ascending order from `begin`: Row(y) is node y's K-lane jump row, the
/// same values an interleaved n·K array would hold at y·K.
template <uint32_t K, typename Real>
class JumpCursor {
 public:
  JumpCursor(const LaneJumps<Real>& jumps, NodeId begin)
      : jumps_(jumps),
        next_(static_cast<uint64_t>(
            std::lower_bound(jumps.ids, jumps.ids + jumps.count, begin) -
            jumps.ids)) {}

  const Real* Row(NodeId y) {
    if (next_ < jumps_.count && jumps_.ids[next_] == y) {
      return jumps_.rows + (next_++) * K;
    }
    return jumps_.fill;
  }

 private:
  LaneJumps<Real> jumps_;
  uint64_t next_;
};

/// Everything one sweep range needs, precomputed by the kernel entry point
/// so every variant sees identical inputs. Lane j of node x lives at
/// x·k + j in each interleaved array.
template <typename Real>
struct SweepArgs {
  /// In-CSR: row y's in-neighbors are sources[in_offsets[y] ..
  /// in_offsets[y + 1]).
  const uint64_t* in_offsets = nullptr;
  const NodeId* sources = nullptr;
  /// Inverse out-degrees in the sweep precision (0 for dangling nodes).
  const Real* inv = nullptr;
  /// Jump vectors, by support.
  LaneJumps<Real> v;
  /// Damping factor c.
  Real c = Real(0);
  /// Hoisted per-lane jump multiplier m[j] = (1−c) + c·dangling[j].
  const Real* m = nullptr;
  const Real* p = nullptr;
  const Real* scaled = nullptr;
  /// May equal `p`: a body reads row y of `p` only to compute row y, and
  /// reads it before storing row y of `next`, so the sweep can update the
  /// iterate in place.
  Real* next = nullptr;
  /// Nullable: when set, receives next · inv (the pre-scaled iterate).
  Real* next_scaled = nullptr;
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
template <uint32_t K, typename Real>
inline void PrefetchGatherRow(const Real* scaled, const NodeId* sources,
                              uint64_t e, uint64_t edge_end) {
  if (e + kPrefetchEdges >= edge_end) return;
  constexpr uint64_t kRowBytes = uint64_t{K} * sizeof(Real);
  constexpr uint64_t kLine = util::kCacheLineBytes;
  const char* row = reinterpret_cast<const char*>(
      scaled + static_cast<uint64_t>(sources[e + kPrefetchEdges]) * K);
  for (uint64_t b = 0; b < kRowBytes; b += kLine) __builtin_prefetch(row + b);
  if constexpr (kRowBytes % kLine != 0 && kLine % kRowBytes != 0) {
    __builtin_prefetch(row + kRowBytes - 1);
  }
}

/// L1-difference term in double regardless of sweep precision: float
/// variants widen BEFORE subtracting, so the residual the solver compares
/// against the tolerance is a true float64 measurement of the float32
/// iterate (the "float64 residual check" of ROADMAP item 4).
inline double AbsDiff(double a, double b) { return std::abs(a - b); }
inline double AbsDiff(float a, float b) {
  return std::abs(static_cast<double>(a) - static_cast<double>(b));
}

#ifndef SPAMMASS_SIMD_VECTOR_TU
/// Portable sweep over node range [begin, end) of K interleaved lanes.
/// diff_slot[j] receives the range's L1 difference for lane j, accumulated
/// in double.
template <typename Real, uint32_t K>
void ScalarSweepRange(const SweepArgs<Real>& args, double* diff_slot,
                      NodeId begin, NodeId end) {
  static_assert(K >= 1 && K <= kMaxSweepLanes);
  const uint64_t* in_offsets = args.in_offsets;
  const NodeId* sources = args.sources;
  const Real c = args.c;
  const uint64_t edge_end = in_offsets[end];
  JumpCursor<K, Real> jump(args.v, begin);
  double diff[K] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    Real in_sum[K];
    for (uint32_t j = 0; j < K; ++j) in_sum[j] = Real(0);
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      PrefetchGatherRow<K>(args.scaled, sources, e, edge_end);
      const Real* row = args.scaled + static_cast<uint64_t>(sources[e]) * K;
      for (uint32_t j = 0; j < K; ++j) in_sum[j] += row[j];
    }
    const Real* vrow = jump.Row(y);
    const Real* prow = args.p + static_cast<uint64_t>(y) * K;
    Real* nrow = args.next + static_cast<uint64_t>(y) * K;
    if (args.next_scaled != nullptr) {
      const Real w = args.inv[y];
      Real* srow = args.next_scaled + static_cast<uint64_t>(y) * K;
      for (uint32_t j = 0; j < K; ++j) {
        const Real out = c * in_sum[j] + vrow[j] * args.m[j];
        diff[j] += AbsDiff(out, prow[j]);
        nrow[j] = out;
        srow[j] = out * w;
      }
    } else {
      for (uint32_t j = 0; j < K; ++j) {
        const Real out = c * in_sum[j] + vrow[j] * args.m[j];
        diff[j] += AbsDiff(out, prow[j]);
        nrow[j] = out;
      }
    }
  }
  for (uint32_t j = 0; j < K; ++j) diff_slot[j] = diff[j];
}
#endif  // SPAMMASS_SIMD_VECTOR_TU

/// Signature every sweep-range implementation (scalar or vectorized)
/// satisfies.
template <typename Real>
using SweepRangeFn = void (*)(const SweepArgs<Real>&, double*, NodeId,
                              NodeId);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_
