// Scoped trace spans with Chrome trace-event export.
//
// SPAMMASS_TRACE_SPAN("pagerank.solve", "method", "jacobi") opens an RAII
// span: on destruction one complete event (name, start, duration, thread,
// key/value args) is appended to the calling thread's ring buffer. When
// tracing is disabled — the default — a span costs one relaxed atomic load
// and a branch; nothing is allocated and nothing is recorded, which is
// what lets the instrumentation live permanently inside the solver and
// pipeline hot paths (bench/bench_obs.cc pins the overhead).
//
// Buffers are per-thread (no locks, no sharing on the record path) and
// fixed-size rings: a thread that records more than kRingCapacity events
// overwrites its oldest ones and counts the drops. SerializeChromeTrace()
// merges every thread's buffer into the Chrome trace-event JSON format,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing —
// including thread-name metadata so pool workers are labeled and
// ParallelForChunked imbalance is visible as staggered pool_task spans.
//
// StartTracing() also installs the util::ThreadPool telemetry hooks, so
// every participant's share of a pool call made while tracing is enabled
// appears as a "pool_task" span on that thread's track.

#ifndef SPAMMASS_OBS_TRACE_H_
#define SPAMMASS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace spammass::obs {

/// Events one thread's ring holds before wrapping (oldest dropped first).
inline constexpr uint32_t kRingCapacity = 16384;

/// Key/value args one span can carry.
inline constexpr uint32_t kMaxSpanArgs = 4;

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// True while tracing is enabled. The one check on the disabled fast path.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Clears previously recorded events, installs the thread-pool telemetry
/// hooks, and starts recording.
void StartTracing();

/// Stops recording. Recorded events remain available for serialization.
void StopTracing();

/// Names the calling thread in trace output ("main"). Threads that take
/// part in a pool call unnamed are named "pool-worker-<participant>" via
/// the thread-pool hooks.
void SetCurrentThreadName(std::string name);

/// Installs the util::ThreadPool observability hooks (share spans + the
/// threadpool.tasks counter). Idempotent; StartTracing() calls it.
void InstallThreadPoolTelemetry();

/// Monotonic timestamp in nanoseconds (steady clock).
uint64_t TraceNowNs();

/// One span argument value. Implicit constructors let call sites pass
/// integers, doubles, and strings directly.
struct SpanArgValue {
  enum class Kind : uint8_t { kInt, kDouble, kString };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;

  SpanArgValue() = default;
  SpanArgValue(int value) : kind(Kind::kInt), i(value) {}  // NOLINT
  SpanArgValue(int64_t value) : kind(Kind::kInt), i(value) {}  // NOLINT
  SpanArgValue(uint32_t value) : kind(Kind::kInt), i(value) {}  // NOLINT
  SpanArgValue(uint64_t value)  // NOLINT
      : kind(Kind::kInt), i(static_cast<int64_t>(value)) {}
  SpanArgValue(double value) : kind(Kind::kDouble), d(value) {}  // NOLINT
  SpanArgValue(std::string_view value)  // NOLINT
      : kind(Kind::kString), s(value) {}
  SpanArgValue(const char* value)  // NOLINT
      : kind(Kind::kString), s(value) {}
};

/// RAII span. `name` must be a string literal (or otherwise outlive the
/// span); argument keys likewise. Args may be attached at construction or
/// any time before destruction (e.g. an iteration count known only after
/// the measured loop).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TracingEnabled()) Begin(name);
  }
  ScopedSpan(const char* name, const char* k1, SpanArgValue v1)
      : ScopedSpan(name) {
    Arg(k1, std::move(v1));
  }
  ScopedSpan(const char* name, const char* k1, SpanArgValue v1,
             const char* k2, SpanArgValue v2)
      : ScopedSpan(name) {
    Arg(k1, std::move(v1));
    Arg(k2, std::move(v2));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (active_) End();
  }

  /// Attaches a key/value arg (no-op when the span is inactive; silently
  /// dropped past kMaxSpanArgs).
  void Arg(const char* key, SpanArgValue value);

 private:
  struct StagedArg {
    const char* key = nullptr;
    SpanArgValue value;
  };

  void Begin(const char* name);
  void End();

  bool active_ = false;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t num_args_ = 0;
  // Staged on the stack; copied into the ring buffer entry at End().
  StagedArg args_[kMaxSpanArgs];
};

/// Total events dropped to ring wrap-around across all threads since the
/// last StartTracing().
uint64_t DroppedEventCount();

/// Serializes every thread's recorded events as one Chrome trace-event
/// JSON document ({"displayTimeUnit": "ms", "traceEvents": [...]}).
/// Callable while tracing is stopped or running (a running trace yields a
/// point-in-time snapshot).
std::string SerializeChromeTrace();

/// Writes SerializeChromeTrace() to `path`, creating missing parent
/// directories; errors name the failing path.
util::Status WriteTraceFile(const std::string& path);

}  // namespace spammass::obs

// Token pasting so multiple spans can coexist in one scope.
#define SPAMMASS_TRACE_CONCAT_IMPL(a, b) a##b
#define SPAMMASS_TRACE_CONCAT(a, b) SPAMMASS_TRACE_CONCAT_IMPL(a, b)

/// Opens a scoped trace span covering the rest of the enclosing block:
///   SPAMMASS_TRACE_SPAN("graph.build");
///   SPAMMASS_TRACE_SPAN("pagerank.solve", "method", "jacobi", "lanes", k);
#define SPAMMASS_TRACE_SPAN(...)                                      \
  ::spammass::obs::ScopedSpan SPAMMASS_TRACE_CONCAT(spammass_span_,   \
                                                    __LINE__) {       \
    __VA_ARGS__                                                       \
  }

#endif  // SPAMMASS_OBS_TRACE_H_
