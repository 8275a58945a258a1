// AVX2 sweep-range body. This is the only translation unit allowed to use
// vector intrinsics (spammass_lint.py `simd-isolation`); it is compiled
// with -mavx2 -ffp-contract=off and entered only after the runtime check
// in Avx2HostSupported(), so no AVX2 instruction can execute on an
// unsupporting host.
//
// The body is bitwise equal to ScalarSweepRange at every width. It is
// element-wise per lane: a 256-bit accumulator holds 4 lanes of ONE node,
// and edge contributions add in exactly the scalar body's order. The
// output is written as add(mul(c, in_sum), mul(vy, m)), the scalar
// expression; the TU is built without -mfma and with -ffp-contract=off,
// so neither the intrinsics nor the plain-double tail can be contracted
// into a fused multiply-add.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#define SPAMMASS_SIMD_VECTOR_TU
#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

bool Avx2HostSupported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace {

/// K lanes of one node: K/4 ymm blocks, then one xmm block when K % 4 is
/// 2 or 3, then one plain double when K is odd. Every block computes the
/// scalar body's per-lane expressions.
template <uint32_t K>
void Avx2SweepF64(const SweepArgs& args, double* diff_slot, NodeId begin,
                  NodeId end) {
  static_assert(K >= 1 && K <= kMaxSweepLanes);
  constexpr uint32_t kYmm = K / 4;
  // Arrays of kYmm registers, sized at least 1 so K < 4 still compiles.
  constexpr uint32_t kYmmSlots = kYmm > 0 ? kYmm : 1;
  constexpr bool kPair = K % 4 >= 2;
  constexpr uint32_t kPairAt = kYmm * 4;
  constexpr bool kSingle = K % 2 == 1;
  constexpr uint32_t kSingleAt = K - 1;

  const uint64_t* in_offsets = args.in_offsets;
  const NodeId* sources = args.sources;
  const double* scaled = args.scaled;
  const double c = args.c;
  const __m256d c4 = _mm256_set1_pd(c);
  const __m128d c2 = _mm_set1_pd(c);
  const __m256d sign4 = _mm256_set1_pd(-0.0);
  const __m128d sign2 = _mm_set1_pd(-0.0);
  __m256d m4[kYmmSlots];
  __m256d diff4[kYmmSlots];
  for (uint32_t b = 0; b < kYmm; ++b) {
    m4[b] = _mm256_loadu_pd(args.m + b * 4);
    diff4[b] = _mm256_setzero_pd();
  }
  const __m128d m2 = kPair ? _mm_loadu_pd(args.m + kPairAt) : _mm_setzero_pd();
  __m128d diff2 = _mm_setzero_pd();
  const double m1 = kSingle ? args.m[kSingleAt] : 0.0;
  double diff1 = 0.0;

  const uint64_t edge_end = in_offsets[end];
  JumpCursor<K> jump(args.v, begin);
  for (NodeId y = begin; y < end; ++y) {
    __m256d acc4[kYmmSlots];
    for (uint32_t b = 0; b < kYmm; ++b) acc4[b] = _mm256_setzero_pd();
    __m128d acc2 = _mm_setzero_pd();
    double acc1 = 0.0;
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      PrefetchGatherRow<K>(scaled, sources, e, edge_end);
      const double* row = scaled + static_cast<uint64_t>(sources[e]) * K;
      for (uint32_t b = 0; b < kYmm; ++b) {
        acc4[b] = _mm256_add_pd(acc4[b], _mm256_loadu_pd(row + b * 4));
      }
      if constexpr (kPair) {
        acc2 = _mm_add_pd(acc2, _mm_loadu_pd(row + kPairAt));
      }
      if constexpr (kSingle) acc1 += row[kSingleAt];
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const double* vrow = jump.Row(y);
    const double* prow = args.p + base;
    double* nrow = args.next + base;
    double* srow = args.next_scaled + base;
    const double w = args.inv[y];
    const __m256d w4 = _mm256_set1_pd(w);
    for (uint32_t b = 0; b < kYmm; ++b) {
      const __m256d out =
          _mm256_add_pd(_mm256_mul_pd(c4, acc4[b]),
                        _mm256_mul_pd(_mm256_loadu_pd(vrow + b * 4), m4[b]));
      const __m256d py = _mm256_loadu_pd(prow + b * 4);
      diff4[b] = _mm256_add_pd(
          diff4[b], _mm256_andnot_pd(sign4, _mm256_sub_pd(out, py)));
      _mm256_storeu_pd(nrow + b * 4, out);
      _mm256_storeu_pd(srow + b * 4, _mm256_mul_pd(out, w4));
    }
    if constexpr (kPair) {
      const __m128d out =
          _mm_add_pd(_mm_mul_pd(c2, acc2),
                     _mm_mul_pd(_mm_loadu_pd(vrow + kPairAt), m2));
      const __m128d py = _mm_loadu_pd(prow + kPairAt);
      diff2 = _mm_add_pd(diff2, _mm_andnot_pd(sign2, _mm_sub_pd(out, py)));
      _mm_storeu_pd(nrow + kPairAt, out);
      _mm_storeu_pd(srow + kPairAt, _mm_mul_pd(out, _mm_set1_pd(w)));
    }
    if constexpr (kSingle) {
      const double out = c * acc1 + vrow[kSingleAt] * m1;
      diff1 += std::abs(out - prow[kSingleAt]);
      nrow[kSingleAt] = out;
      srow[kSingleAt] = out * w;
    }
  }
  for (uint32_t b = 0; b < kYmm; ++b) {
    _mm256_storeu_pd(diff_slot + b * 4, diff4[b]);
  }
  if constexpr (kPair) _mm_storeu_pd(diff_slot + kPairAt, diff2);
  if constexpr (kSingle) diff_slot[kSingleAt] = diff1;
}

}  // namespace

SweepRangeFn PickAvx2Sweep(uint32_t k) {
  static constexpr auto kTable = LaneWidthTable<SweepRangeFn>(
      [](auto width) { return &Avx2SweepF64<decltype(width)::value>; });
  return kTable[k - 1];
}

}  // namespace spammass::pagerank::simd

#endif  // defined(__x86_64__) || defined(_M_X64)
