#include "pagerank/simd.h"

#include <atomic>
#include <cstdint>

#include "pagerank/simd_sweep_body.h"
#include "util/logging.h"

namespace spammass::pagerank::simd {

// The AVX2 body and its host check, defined in simd_avx2.cc on x86-64.
#if defined(__x86_64__) || defined(_M_X64)
SweepRangeFn PickAvx2Sweep(uint32_t k);
bool Avx2HostSupported();
#endif

namespace {

/// The level a live ScopedLevelOverride pins, or -1 for none.
std::atomic<int> g_override{-1};

/// Scalar instantiation table: one compile-time width per batch width
/// 1..kMaxSweepLanes, so compacted in-between widths unroll too.
SweepRangeFn PickScalarSweep(uint32_t k) {
  static constexpr auto kTable = LaneWidthTable<SweepRangeFn>(
      [](auto width) { return &ScalarSweepRange<decltype(width)::value>; });
  return kTable[k - 1];
}

}  // namespace

const char* LevelToString(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Level Best() {
#if defined(__x86_64__) || defined(_M_X64)
  static const Level best =
      Avx2HostSupported() ? Level::kAvx2 : Level::kScalar;
  return best;
#else
  return Level::kScalar;
#endif
}

Level Active() {
  const int pinned = g_override.load(std::memory_order_relaxed);
  return pinned < 0 ? Best() : static_cast<Level>(pinned);
}

ScopedLevelOverride::ScopedLevelOverride(Level level)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  CHECK(level == Level::kScalar || level == Best());
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedLevelOverride::~ScopedLevelOverride() {
  g_override.store(previous_, std::memory_order_relaxed);
}

SweepRangeFn PickSweep(Level level, uint32_t k) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxSweepLanes);
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Best() == Level::kAvx2) {
    return PickAvx2Sweep(k);
  }
#endif
  (void)level;
  return PickScalarSweep(k);
}

}  // namespace spammass::pagerank::simd
