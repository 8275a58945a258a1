// AArch64 Advanced-SIMD (NEON) sweep-range backends — the ARM mirror of
// simd_avx2.cc and the only other translation unit allowed to use vector
// intrinsics (spammass_lint.py `simd-isolation`). NEON is baseline on
// AArch64, so there is no runtime feature check; simd.cc gates dispatch on
// the architecture alone.
//
// Same discipline as the AVX2 backend: registers hold lanes of ONE node,
// edge contributions add element-wise in the scalar body's order, and the
// L1 difference widens float lanes to double before subtracting.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

namespace {

/// K doubles (K ∈ {4, 8, 16}) of one node accumulate in K/2 128-bit
/// registers.
template <uint32_t K, bool Compressed>
void NeonSweepF64(const SweepArgs<double>& args, double* diff_slot,
                  graph::NodeId begin, graph::NodeId end) {
  static_assert(K % 2 == 0 && K <= kMaxSweepLanes);
  constexpr uint32_t kBlocks = K / 2;
  const uint64_t* in_offsets = args.in_offsets;
  const float64x2_t c = vdupq_n_f64(args.c);
  float64x2_t mv[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) mv[b] = vld1q_f64(args.m + b * 2);
  float64x2_t diff[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) diff[b] = vdupq_n_f64(0.0);
  JumpCursor<K, double> jump(args.v, begin);
  for (graph::NodeId y = begin; y < end; ++y) {
    float64x2_t acc[kBlocks];
    for (uint32_t b = 0; b < kBlocks; ++b) acc[b] = vdupq_n_f64(0.0);
    if constexpr (Compressed) {
      const uint8_t* cp = args.comp_bytes + args.comp_offsets[y];
      const uint64_t degree = in_offsets[y + 1] - in_offsets[y];
      graph::NodeId prev = 0;
      for (uint64_t e = 0; e < degree; ++e) {
        const graph::NodeId src = prev + graph::DecodeVarint32Unchecked(&cp);
        prev = src + 1;
        const double* row = args.scaled + static_cast<uint64_t>(src) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = vaddq_f64(acc[b], vld1q_f64(row + b * 2));
        }
      }
    } else {
      const graph::NodeId* sources = args.sources;
      for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
        const double* row =
            args.scaled + static_cast<uint64_t>(sources[e]) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = vaddq_f64(acc[b], vld1q_f64(row + b * 2));
        }
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const double* vrow = jump.Row(y);
    for (uint32_t b = 0; b < kBlocks; ++b) {
      const float64x2_t vy = vld1q_f64(vrow + b * 2);
      const float64x2_t py = vld1q_f64(args.p + base + b * 2);
      const float64x2_t out = vfmaq_f64(vmulq_f64(c, acc[b]), vy, mv[b]);
      diff[b] = vaddq_f64(diff[b], vabsq_f64(vsubq_f64(out, py)));
      vst1q_f64(args.next + base + b * 2, out);
      if (args.next_scaled != nullptr) {
        vst1q_f64(args.next_scaled + base + b * 2,
                  vmulq_n_f64(out, args.inv[y]));
      }
    }
  }
  for (uint32_t b = 0; b < kBlocks; ++b) {
    vst1q_f64(diff_slot + b * 2, diff[b]);
  }
}

/// K floats (K ∈ {4, 8, 16}) of one node accumulate in K/4 128-bit
/// registers; differences widen each half to double before subtracting.
template <uint32_t K, bool Compressed>
void NeonSweepF32(const SweepArgs<float>& args, double* diff_slot,
                  graph::NodeId begin, graph::NodeId end) {
  static_assert(K % 4 == 0 && K <= kMaxSweepLanes);
  constexpr uint32_t kBlocks = K / 4;
  const uint64_t* in_offsets = args.in_offsets;
  const float32x4_t c = vdupq_n_f32(args.c);
  float32x4_t mv[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) mv[b] = vld1q_f32(args.m + b * 4);
  float64x2_t diff_lo[kBlocks];
  float64x2_t diff_hi[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) {
    diff_lo[b] = vdupq_n_f64(0.0);
    diff_hi[b] = vdupq_n_f64(0.0);
  }
  JumpCursor<K, float> jump(args.v, begin);
  for (graph::NodeId y = begin; y < end; ++y) {
    float32x4_t acc[kBlocks];
    for (uint32_t b = 0; b < kBlocks; ++b) acc[b] = vdupq_n_f32(0.0f);
    if constexpr (Compressed) {
      const uint8_t* cp = args.comp_bytes + args.comp_offsets[y];
      const uint64_t degree = in_offsets[y + 1] - in_offsets[y];
      graph::NodeId prev = 0;
      for (uint64_t e = 0; e < degree; ++e) {
        const graph::NodeId src = prev + graph::DecodeVarint32Unchecked(&cp);
        prev = src + 1;
        const float* row = args.scaled + static_cast<uint64_t>(src) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = vaddq_f32(acc[b], vld1q_f32(row + b * 4));
        }
      }
    } else {
      const graph::NodeId* sources = args.sources;
      for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
        const float* row = args.scaled + static_cast<uint64_t>(sources[e]) * K;
        for (uint32_t b = 0; b < kBlocks; ++b) {
          acc[b] = vaddq_f32(acc[b], vld1q_f32(row + b * 4));
        }
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const float* vrow = jump.Row(y);
    for (uint32_t b = 0; b < kBlocks; ++b) {
      const float32x4_t vy = vld1q_f32(vrow + b * 4);
      const float32x4_t py = vld1q_f32(args.p + base + b * 4);
      const float32x4_t out = vfmaq_f32(vmulq_f32(c, acc[b]), vy, mv[b]);
      const float64x2_t out_lo = vcvt_f64_f32(vget_low_f32(out));
      const float64x2_t out_hi = vcvt_high_f64_f32(out);
      const float64x2_t p_lo = vcvt_f64_f32(vget_low_f32(py));
      const float64x2_t p_hi = vcvt_high_f64_f32(py);
      diff_lo[b] = vaddq_f64(diff_lo[b], vabsq_f64(vsubq_f64(out_lo, p_lo)));
      diff_hi[b] = vaddq_f64(diff_hi[b], vabsq_f64(vsubq_f64(out_hi, p_hi)));
      vst1q_f32(args.next + base + b * 4, out);
      if (args.next_scaled != nullptr) {
        vst1q_f32(args.next_scaled + base + b * 4,
                  vmulq_n_f32(out, args.inv[y]));
      }
    }
  }
  for (uint32_t b = 0; b < kBlocks; ++b) {
    vst1q_f64(diff_slot + b * 4, diff_lo[b]);
    vst1q_f64(diff_slot + b * 4 + 2, diff_hi[b]);
  }
}

}  // namespace

SweepRangeFn<double> PickNeonSweepF64(uint32_t k, bool compressed) {
  if (compressed) {
    switch (k) {
      case 4:
        return NeonSweepF64<4, true>;
      case 8:
        return NeonSweepF64<8, true>;
      case 16:
        return NeonSweepF64<16, true>;
      default:
        return nullptr;
    }
  }
  switch (k) {
    case 4:
      return NeonSweepF64<4, false>;
    case 8:
      return NeonSweepF64<8, false>;
    case 16:
      return NeonSweepF64<16, false>;
    default:
      return nullptr;
  }
}

SweepRangeFn<float> PickNeonSweepF32(uint32_t k, bool compressed) {
  if (compressed) {
    switch (k) {
      case 4:
        return NeonSweepF32<4, true>;
      case 8:
        return NeonSweepF32<8, true>;
      case 16:
        return NeonSweepF32<16, true>;
      default:
        return nullptr;
    }
  }
  switch (k) {
    case 4:
      return NeonSweepF32<4, false>;
    case 8:
      return NeonSweepF32<8, false>;
    case 16:
      return NeonSweepF32<16, false>;
    default:
      return nullptr;
  }
}

}  // namespace spammass::pagerank::simd

#endif  // defined(__aarch64__)
