// AVX2 + FMA sweep-range backends. This is the only x86 translation unit
// allowed to use vector intrinsics (spammass_lint.py `simd-isolation`); it
// is compiled with -mavx2 -mfma and entered only after the runtime check
// in Avx2HostSupported(), so no AVX2 instruction can execute on an
// unsupporting host.
//
// Every routine is element-wise per lane: a 256-bit accumulator holds 4
// double (or, via two registers, 8+ float) lanes of ONE node, and edge
// contributions add in exactly the scalar body's order. The only numeric
// difference from ScalarSweepRange is FMA contraction in the output
// expression `c·in_sum + v·m`. The scalar bodies are compiled for the
// baseline x86-64 ISA, which has no FMA instruction, so they never
// contract; equivalence is asserted by pagerank_sweep_variant_test.cc
// under tolerance, while the default scalar/f64/plain path keeps the
// bit-exact guarantee. For the same reason this TU must never instantiate
// ScalarSweepRange: SPAMMASS_SIMD_VECTOR_TU hides it here.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

#define SPAMMASS_SIMD_VECTOR_TU
#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

bool Avx2HostSupported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

// ---- float64 lanes ----

/// K doubles (K ∈ {4, 8, 16}) of one node accumulate in K/4 ymm registers.
template <uint32_t K, bool Compressed>
void Avx2SweepF64(const SweepArgs<double>& args, double* diff_slot,
                  graph::NodeId begin, graph::NodeId end) {
  static_assert(K % 4 == 0 && K <= kMaxSweepLanes);
  constexpr uint32_t kBlocks = K / 4;
  const uint64_t* in_offsets = args.in_offsets;
  const __m256d c = _mm256_set1_pd(args.c);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d mv[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) {
    mv[b] = _mm256_loadu_pd(args.m + b * 4);
  }
  __m256d diff[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) diff[b] = _mm256_setzero_pd();
  const uint64_t edge_limit = in_offsets[end];
  JumpCursor<K, double> jump(args.v, begin);
  for (graph::NodeId y = begin; y < end; ++y) {
    __m256d acc[kBlocks];
    for (uint32_t b = 0; b < kBlocks; ++b) acc[b] = _mm256_setzero_pd();
    if constexpr (Compressed) {
      const uint8_t* cp = args.comp_bytes + args.comp_offsets[y];
      const uint64_t degree = in_offsets[y + 1] - in_offsets[y];
      graph::NodeId prev = 0;
      for (uint64_t e = 0; e < degree; ++e) {
        const graph::NodeId src = prev + graph::DecodeVarint32Unchecked(&cp);
        prev = src + 1;
        const double* row = args.scaled + static_cast<uint64_t>(src) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = _mm256_add_pd(acc[b], _mm256_loadu_pd(row + b * 4));
        }
      }
    } else {
      const graph::NodeId* sources = args.sources;
      for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
        PrefetchGatherRow<K>(args.scaled, sources, e, edge_limit);
        const double* row =
            args.scaled + static_cast<uint64_t>(sources[e]) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = _mm256_add_pd(acc[b], _mm256_loadu_pd(row + b * 4));
        }
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const double* vrow = jump.Row(y);
    const double* prow = args.p + base;
    double* nrow = args.next + base;
    const __m256d w =
        args.next_scaled != nullptr ? _mm256_set1_pd(args.inv[y])
                                    : _mm256_setzero_pd();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      const __m256d vy = _mm256_loadu_pd(vrow + b * 4);
      const __m256d py = _mm256_loadu_pd(prow + b * 4);
      const __m256d out =
          _mm256_fmadd_pd(vy, mv[b], _mm256_mul_pd(c, acc[b]));
      diff[b] = _mm256_add_pd(
          diff[b],
          _mm256_andnot_pd(sign_mask, _mm256_sub_pd(out, py)));
      _mm256_storeu_pd(nrow + b * 4, out);
      if (args.next_scaled != nullptr) {
        _mm256_storeu_pd(args.next_scaled + base + b * 4,
                         _mm256_mul_pd(out, w));
      }
    }
  }
  for (uint32_t b = 0; b < kBlocks; ++b) {
    _mm256_storeu_pd(diff_slot + b * 4, diff[b]);
  }
}

// ---- float32 lanes ----

/// K floats (K ∈ {8, 16}) of one node accumulate in K/8 ymm registers;
/// the L1 difference widens each 8-float block into two double registers
/// BEFORE subtracting, matching AbsDiff in the scalar body.
template <uint32_t K, bool Compressed>
void Avx2SweepF32(const SweepArgs<float>& args, double* diff_slot,
                  graph::NodeId begin, graph::NodeId end) {
  static_assert(K % 8 == 0 && K <= kMaxSweepLanes);
  constexpr uint32_t kBlocks = K / 8;
  const uint64_t* in_offsets = args.in_offsets;
  const __m256 c = _mm256_set1_ps(args.c);
  __m256 mv[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) {
    mv[b] = _mm256_loadu_ps(args.m + b * 8);
  }
  const __m256d dsign_mask = _mm256_set1_pd(-0.0);
  __m256d diff_lo[kBlocks];
  __m256d diff_hi[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) {
    diff_lo[b] = _mm256_setzero_pd();
    diff_hi[b] = _mm256_setzero_pd();
  }
  const uint64_t edge_limit = in_offsets[end];
  JumpCursor<K, float> jump(args.v, begin);
  for (graph::NodeId y = begin; y < end; ++y) {
    __m256 acc[kBlocks];
    for (uint32_t b = 0; b < kBlocks; ++b) acc[b] = _mm256_setzero_ps();
    if constexpr (Compressed) {
      const uint8_t* cp = args.comp_bytes + args.comp_offsets[y];
      const uint64_t degree = in_offsets[y + 1] - in_offsets[y];
      graph::NodeId prev = 0;
      for (uint64_t e = 0; e < degree; ++e) {
        const graph::NodeId src = prev + graph::DecodeVarint32Unchecked(&cp);
        prev = src + 1;
        const float* row = args.scaled + static_cast<uint64_t>(src) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = _mm256_add_ps(acc[b], _mm256_loadu_ps(row + b * 8));
        }
      }
    } else {
      const graph::NodeId* sources = args.sources;
      for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
        PrefetchGatherRow<K>(args.scaled, sources, e, edge_limit);
        const float* row = args.scaled + static_cast<uint64_t>(sources[e]) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = _mm256_add_ps(acc[b], _mm256_loadu_ps(row + b * 8));
        }
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const float* vrow = jump.Row(y);
    const float* prow = args.p + base;
    float* nrow = args.next + base;
    const __m256 w = args.next_scaled != nullptr
                         ? _mm256_set1_ps(args.inv[y])
                         : _mm256_setzero_ps();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      const __m256 vy = _mm256_loadu_ps(vrow + b * 8);
      const __m256 py = _mm256_loadu_ps(prow + b * 8);
      const __m256 out = _mm256_fmadd_ps(vy, mv[b], _mm256_mul_ps(c, acc[b]));
      // Widen out/p to double per half, then |out − p| accumulates in
      // double exactly like the scalar AbsDiff.
      const __m256d out_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(out));
      const __m256d out_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(out, 1));
      const __m256d p_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(py));
      const __m256d p_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(py, 1));
      diff_lo[b] = _mm256_add_pd(
          diff_lo[b],
          _mm256_andnot_pd(dsign_mask, _mm256_sub_pd(out_lo, p_lo)));
      diff_hi[b] = _mm256_add_pd(
          diff_hi[b],
          _mm256_andnot_pd(dsign_mask, _mm256_sub_pd(out_hi, p_hi)));
      _mm256_storeu_ps(nrow + b * 8, out);
      if (args.next_scaled != nullptr) {
        _mm256_storeu_ps(args.next_scaled + base + b * 8,
                         _mm256_mul_ps(out, w));
      }
    }
  }
  for (uint32_t b = 0; b < kBlocks; ++b) {
    _mm256_storeu_pd(diff_slot + b * 8, diff_lo[b]);
    _mm256_storeu_pd(diff_slot + b * 8 + 4, diff_hi[b]);
  }
}

/// K = 4 floats fit one xmm register; the difference accumulator is a
/// single double register covering all four lanes.
template <bool Compressed>
void Avx2SweepF32x4(const SweepArgs<float>& args, double* diff_slot,
                    graph::NodeId begin, graph::NodeId end) {
  constexpr uint32_t K = 4;
  const uint64_t* in_offsets = args.in_offsets;
  const __m128 c = _mm_set1_ps(args.c);
  const __m128 mv = _mm_loadu_ps(args.m);
  const __m256d dsign_mask = _mm256_set1_pd(-0.0);
  __m256d diff = _mm256_setzero_pd();
  const uint64_t edge_limit = in_offsets[end];
  JumpCursor<K, float> jump(args.v, begin);
  for (graph::NodeId y = begin; y < end; ++y) {
    __m128 acc = _mm_setzero_ps();
    if constexpr (Compressed) {
      const uint8_t* cp = args.comp_bytes + args.comp_offsets[y];
      const uint64_t degree = in_offsets[y + 1] - in_offsets[y];
      graph::NodeId prev = 0;
      for (uint64_t e = 0; e < degree; ++e) {
        const graph::NodeId src = prev + graph::DecodeVarint32Unchecked(&cp);
        prev = src + 1;
        acc = _mm_add_ps(
            acc, _mm_loadu_ps(args.scaled + static_cast<uint64_t>(src) * K));
      }
    } else {
      const graph::NodeId* sources = args.sources;
      for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
        PrefetchGatherRow<K>(args.scaled, sources, e, edge_limit);
        acc = _mm_add_ps(acc, _mm_loadu_ps(args.scaled +
                                           static_cast<uint64_t>(sources[e]) *
                                               K));
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const __m128 vy = _mm_loadu_ps(jump.Row(y));
    const __m128 py = _mm_loadu_ps(args.p + base);
    const __m128 out = _mm_fmadd_ps(vy, mv, _mm_mul_ps(c, acc));
    diff = _mm256_add_pd(
        diff, _mm256_andnot_pd(dsign_mask,
                               _mm256_sub_pd(_mm256_cvtps_pd(out),
                                             _mm256_cvtps_pd(py))));
    _mm_storeu_ps(args.next + base, out);
    if (args.next_scaled != nullptr) {
      _mm_storeu_ps(args.next_scaled + base,
                    _mm_mul_ps(out, _mm_set1_ps(args.inv[y])));
    }
  }
  _mm256_storeu_pd(diff_slot, diff);
}

}  // namespace

SweepRangeFn<double> PickAvx2SweepF64(uint32_t k, bool compressed) {
  if (compressed) {
    switch (k) {
      case 4:
        return Avx2SweepF64<4, true>;
      case 8:
        return Avx2SweepF64<8, true>;
      case 16:
        return Avx2SweepF64<16, true>;
      default:
        return nullptr;
    }
  }
  switch (k) {
    case 4:
      return Avx2SweepF64<4, false>;
    case 8:
      return Avx2SweepF64<8, false>;
    case 16:
      return Avx2SweepF64<16, false>;
    default:
      return nullptr;
  }
}

SweepRangeFn<float> PickAvx2SweepF32(uint32_t k, bool compressed) {
  if (compressed) {
    switch (k) {
      case 4:
        return Avx2SweepF32x4<true>;
      case 8:
        return Avx2SweepF32<8, true>;
      case 16:
        return Avx2SweepF32<16, true>;
      default:
        return nullptr;
    }
  }
  switch (k) {
    case 4:
      return Avx2SweepF32x4<false>;
    case 8:
      return Avx2SweepF32<8, false>;
    case 16:
      return Avx2SweepF32<16, false>;
    default:
      return nullptr;
  }
}

}  // namespace spammass::pagerank::simd

#endif  // defined(__x86_64__) || defined(_M_X64)
