#include "pagerank/simd.h"

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

// Vector backends, defined in simd_avx2.cc / simd_neon.cc when compiled
// for the matching architecture. They return nullptr for widths they do
// not vectorize; this TU then falls back to ScalarSweepRange.
#if defined(__x86_64__) || defined(_M_X64)
SweepRangeFn<double> PickAvx2SweepF64(uint32_t k, bool compressed);
SweepRangeFn<float> PickAvx2SweepF32(uint32_t k, bool compressed);
bool Avx2HostSupported();
#endif
#if defined(__aarch64__)
SweepRangeFn<double> PickNeonSweepF64(uint32_t k, bool compressed);
SweepRangeFn<float> PickNeonSweepF32(uint32_t k, bool compressed);
#endif

const char* LevelToString(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "scalar";
}

bool IsSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return Avx2HostSupported();
#else
      return false;
#endif
    case Level::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level Best() {
  if (IsSupported(Level::kAvx2)) return Level::kAvx2;
  if (IsSupported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

namespace {

/// Scalar instantiation table: one compile-time width per batch width
/// 1..kMaxSweepLanes, so compacted in-between widths unroll too.
template <typename Real, bool Compressed>
SweepRangeFn<Real> PickScalar(uint32_t k) {
  static constexpr auto kTable =
      LaneWidthTable<SweepRangeFn<Real>>([](auto width) {
        return &ScalarSweepRange<Real, decltype(width)::value, Compressed>;
      });
  return kTable[k - 1];
}

template <typename Real>
SweepRangeFn<Real> PickScalarSweep(uint32_t k, bool compressed) {
  return compressed ? PickScalar<Real, true>(k) : PickScalar<Real, false>(k);
}

}  // namespace

SweepRangeFn<double> PickSweepF64(Level level, uint32_t k, bool compressed) {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Avx2HostSupported()) {
    if (SweepRangeFn<double> fn = PickAvx2SweepF64(k, compressed)) return fn;
  }
#endif
#if defined(__aarch64__)
  if (level == Level::kNeon) {
    if (SweepRangeFn<double> fn = PickNeonSweepF64(k, compressed)) return fn;
  }
#endif
  (void)level;
  return PickScalarSweep<double>(k, compressed);
}

SweepRangeFn<float> PickSweepF32(Level level, uint32_t k, bool compressed) {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Avx2HostSupported()) {
    if (SweepRangeFn<float> fn = PickAvx2SweepF32(k, compressed)) return fn;
  }
#endif
#if defined(__aarch64__)
  if (level == Level::kNeon) {
    if (SweepRangeFn<float> fn = PickNeonSweepF32(k, compressed)) return fn;
  }
#endif
  (void)level;
  return PickScalarSweep<float>(k, compressed);
}

}  // namespace spammass::pagerank::simd
