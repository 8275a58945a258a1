// Runtime dispatch of the multi-RHS Jacobi sweep body. The kernel
// (kernel.cc) asks this shim once per call for the body of its lane width:
// the AVX2 body of simd_avx2.cc on hosts whose CPU has AVX2, otherwise the
// portable scalar body of simd_sweep_body.h. The two are bitwise equal at
// every width 1..kMaxSweepLanes, so the choice changes the speed of a
// sweep, never its result, and it is not a solver option.
//
// Vector intrinsics are confined to simd_avx2.cc (spammass_lint.py
// `simd-isolation`). On other architectures only the scalar body exists,
// and the compiler vectorizes its lane loops on its own.

#ifndef SPAMMASS_PAGERANK_SIMD_H_
#define SPAMMASS_PAGERANK_SIMD_H_

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

/// Instruction set a sweep body is written for.
enum class Level {
  kScalar = 0,
  kAvx2,  // x86-64 AVX2
};

/// Stable lowercase name ("scalar", "avx2"), echoed by the run manifest.
const char* LevelToString(Level level);

/// kAvx2 when the running CPU has AVX2 (and the build is x86-64),
/// otherwise kScalar.
Level Best();

/// The level the kernel's sweeps run at: Best(), unless a
/// ScopedLevelOverride is alive.
Level Active();

/// Pins Active() to `level` for the object's lifetime, so the equivalence
/// tests and the micro-benches can run whole solves through the scalar
/// body and compare them with the default. `level` must be kScalar or
/// Best(). Not thread-safe: construct and destroy it while no solve runs.
class ScopedLevelOverride {
 public:
  explicit ScopedLevelOverride(Level level);
  ~ScopedLevelOverride();
  ScopedLevelOverride(const ScopedLevelOverride&) = delete;
  ScopedLevelOverride& operator=(const ScopedLevelOverride&) = delete;

 private:
  int previous_;
};

/// The sweep-range body for `level` and lane count k in
/// [1, kMaxSweepLanes]. kAvx2 on a host without AVX2 falls back to the
/// scalar body, so the returned function is always valid.
SweepRangeFn PickSweep(Level level, uint32_t k);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_H_
