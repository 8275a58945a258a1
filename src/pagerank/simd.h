// Runtime-dispatched SIMD backends for the multi-RHS sweep. The kernel
// (kernel.cc) asks this shim for a sweep-range implementation matching the
// resolved (instruction set, precision, lane count); the
// shim returns a hand-vectorized AVX2/NEON routine when the host supports
// it and the width has one, otherwise the portable scalar body from
// simd_sweep_body.h. Dispatch happens once per kernel call — never inside
// the edge loop.
//
// Vector intrinsics are confined to simd_avx2.cc / simd_neon.cc
// (spammass_lint.py `simd-isolation`); each vector routine is
// element-wise per lane, preserving the per-lane accumulation order of the
// scalar body, so vectorization never reassociates a reduction — the only
// numeric divergence from scalar is FMA contraction in the output
// expression, bounded by the equivalence tests.

#ifndef SPAMMASS_PAGERANK_SIMD_H_
#define SPAMMASS_PAGERANK_SIMD_H_

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

/// Instruction-set tier a sweep can run on.
enum class Level {
  kScalar = 0,
  kAvx2,  // x86-64 AVX2 + FMA
  kNeon,  // AArch64 Advanced SIMD
};

/// Stable lowercase name ("scalar", "avx2", "neon").
const char* LevelToString(Level level);

/// True when the running host can execute `level` (kScalar always can).
bool IsSupported(Level level);

/// Highest supported level on the running host; kScalar when no vector
/// backend applies.
Level Best();

/// Returns the sweep-range routine for (level, lane count k) at the given
/// precision. Unsupported or unvectorized combinations fall back to the
/// scalar body — the returned function is always valid for k in
/// [1, kMaxSweepLanes].
SweepRangeFn<double> PickSweepF64(Level level, uint32_t k);
SweepRangeFn<float> PickSweepF32(Level level, uint32_t k);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_H_
