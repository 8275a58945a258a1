#include "obs/trace.h"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace spammass::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

namespace {

/// One recorded complete event. Reused in place on ring wrap, so the
/// std::string capacity inside string args amortizes away.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t num_args = 0;
  struct Arg {
    const char* key = nullptr;
    SpanArgValue value;
  };
  Arg args[kMaxSpanArgs];
};

/// Per-thread event ring. The owning thread records under `mu`; the mutex
/// is uncontended except while a snapshot is being serialized, so the
/// record path stays cheap and TSan-clean. Rings outlive their threads
/// (pool workers' events must survive pool destruction) and are never
/// removed from the registry.
struct ThreadRing {
  util::Mutex mu;
  /// Assigned once at registration, before the ring is published through
  /// the registry; immutable afterwards, so readable without `mu`.
  uint64_t tid = 0;
  std::string thread_name SPAMMASS_GUARDED_BY(mu);
  /// Grows to kRingCapacity, then wraps.
  std::vector<TraceEvent> events SPAMMASS_GUARDED_BY(mu);
  /// Includes overwritten events.
  uint64_t total_recorded SPAMMASS_GUARDED_BY(mu) = 0;
};

struct TraceRegistry {
  util::Mutex mu;
  /// Leaked: rings live forever.
  std::vector<ThreadRing*> rings SPAMMASS_GUARDED_BY(mu);
  uint64_t next_tid SPAMMASS_GUARDED_BY(mu) = 1;
  /// Timestamp origin, set by StartTracing().
  uint64_t start_ns SPAMMASS_GUARDED_BY(mu) = 0;
};

TraceRegistry& Registry() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

/// How many drops the obs.trace.dropped_events counter already reflects.
/// The ring drop total is recomputed from scratch on every serialize (and
/// resets to 0 when StartTracing clears the rings), so the counter
/// advances by positive deltas against this high-water mark to stay
/// monotonic across multiple exports of one tracing session.
struct DroppedPublishState {
  util::Mutex mu;
  uint64_t published SPAMMASS_GUARDED_BY(mu) = 0;
};

DroppedPublishState& DroppedState() {
  static DroppedPublishState* state = new DroppedPublishState();
  return *state;
}

/// Publishes `dropped` (a fresh full recount) into the counter. Callers
/// must NOT hold Registry().mu — metric registration takes its own lock
/// and lock-order discipline keeps the two independent.
void PublishDroppedEvents(uint64_t dropped) {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.trace.dropped_events");
  DroppedPublishState& state = DroppedState();
  util::MutexLock lock(&state.mu);
  if (dropped > state.published) {
    counter->Add(dropped - state.published);
    state.published = dropped;
  }
}

ThreadRing* ThisThreadRing() {
  thread_local ThreadRing* ring = [] {
    auto* r = new ThreadRing();  // leaked: events outlive the thread
    TraceRegistry& registry = Registry();
    util::MutexLock lock(&registry.mu);
    r->tid = registry.next_tid++;
    {
      // Pre-publication, so uncontended; taken for the analysis' benefit.
      util::MutexLock ring_lock(&r->mu);
      r->thread_name = "thread-" + std::to_string(r->tid);
    }
    registry.rings.push_back(r);
    return r;
  }();
  return ring;
}

/// Appends one event to the calling thread's ring, overwriting the oldest
/// event once the ring is full.
TraceEvent& AppendEvent(ThreadRing* ring) SPAMMASS_REQUIRES(ring->mu) {
  if (ring->events.size() < kRingCapacity) {
    ring->events.emplace_back();
    ++ring->total_recorded;
    return ring->events.back();
  }
  TraceEvent& slot =
      ring->events[ring->total_recorded % kRingCapacity];
  ++ring->total_recorded;
  slot.num_args = 0;
  return slot;
}

void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns,
                    const TraceEvent::Arg* args, uint32_t num_args) {
  ThreadRing* ring = ThisThreadRing();
  util::MutexLock lock(&ring->mu);
  TraceEvent& event = AppendEvent(ring);
  event.name = name;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.num_args = num_args;
  for (uint32_t i = 0; i < num_args; ++i) {
    event.args[i].key = args[i].key;
    event.args[i].value = args[i].value;
  }
}

// --- thread-pool telemetry hooks ------------------------------------------
//
// Installed via util::SetThreadPoolHooks, around every participant's share
// of a pool call. The tasks counter counts always (metrics are always-on);
// the pool_task span records only while tracing.

thread_local uint64_t t_pool_task_start_ns = 0;
thread_local bool t_thread_named = false;  // Named threads keep their name.

void PoolTaskBegin(uint32_t participant) {
  static Counter* tasks =
      MetricsRegistry::Global().GetCounter("threadpool.tasks");
  tasks->Increment();
  if (!TracingEnabled()) {
    t_pool_task_start_ns = 0;
    return;
  }
  if (!t_thread_named) {
    SetCurrentThreadName("pool-worker-" + std::to_string(participant));
  }
  t_pool_task_start_ns = TraceNowNs();
}

void PoolTaskEnd(uint32_t /*participant*/) {
  // start == 0 means tracing was off at share begin; skip the partial span.
  if (t_pool_task_start_ns == 0) return;
  const uint64_t start = t_pool_task_start_ns;
  t_pool_task_start_ns = 0;
  RecordComplete("pool_task", start, TraceNowNs() - start, nullptr, 0);
}

constexpr util::ThreadPoolHooks kObsThreadPoolHooks{&PoolTaskBegin,
                                                    &PoolTaskEnd};

void WriteEventJson(util::JsonWriter& json, const ThreadRing& ring,
                    const TraceEvent& event, uint64_t origin_ns)
    SPAMMASS_REQUIRES(ring.mu) {
  json.BeginObject();
  json.Key("name").String(event.name);
  json.Key("cat").String("spammass");
  json.Key("ph").String("X");
  // Chrome trace-event timestamps are microseconds; fractional values
  // keep the full nanosecond resolution.
  json.Key("ts").Double(
      static_cast<double>(event.start_ns - origin_ns) / 1000.0);
  json.Key("dur").Double(static_cast<double>(event.dur_ns) / 1000.0);
  json.Key("pid").Uint(1);
  json.Key("tid").Uint(ring.tid);
  if (event.num_args > 0) {
    json.Key("args").BeginObject();
    for (uint32_t i = 0; i < event.num_args; ++i) {
      const TraceEvent::Arg& arg = event.args[i];
      json.Key(arg.key);
      switch (arg.value.kind) {
        case SpanArgValue::Kind::kInt:
          json.Int(arg.value.i);
          break;
        case SpanArgValue::Kind::kDouble:
          json.Double(arg.value.d);
          break;
        case SpanArgValue::Kind::kString:
          json.String(arg.value.s);
          break;
      }
    }
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

void StartTracing() {
  InstallThreadPoolTelemetry();
  TraceRegistry& registry = Registry();
  {
    util::MutexLock lock(&registry.mu);
    for (ThreadRing* ring : registry.rings) {
      util::MutexLock ring_lock(&ring->mu);
      ring->events.clear();
      ring->total_recorded = 0;
    }
    registry.start_ns = TraceNowNs();
  }
  {
    // Rings were just cleared, so the recounted drop total restarts at
    // zero; re-arm the delta baseline to match. The counter itself keeps
    // its lifetime total (counters never go backwards).
    DroppedPublishState& state = DroppedState();
    util::MutexLock lock(&state.mu);
    state.published = 0;
  }
  internal::g_tracing_enabled.store(true, std::memory_order_release);
}

void StopTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_release);
}

void SetCurrentThreadName(std::string name) {
  t_thread_named = true;
  ThreadRing* ring = ThisThreadRing();
  util::MutexLock lock(&ring->mu);
  ring->thread_name = std::move(name);
}

void InstallThreadPoolTelemetry() {
  util::SetThreadPoolHooks(&kObsThreadPoolHooks);
}

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ScopedSpan::Begin(const char* name) {
  active_ = true;
  name_ = name;
  num_args_ = 0;
  start_ns_ = TraceNowNs();
}

void ScopedSpan::Arg(const char* key, SpanArgValue value) {
  if (!active_ || num_args_ >= kMaxSpanArgs) return;
  args_[num_args_].key = key;
  args_[num_args_].value = std::move(value);
  ++num_args_;
}

void ScopedSpan::End() {
  const uint64_t end_ns = TraceNowNs();
  active_ = false;
  TraceEvent::Arg converted[kMaxSpanArgs];
  for (uint32_t i = 0; i < num_args_; ++i) {
    converted[i].key = args_[i].key;
    converted[i].value = std::move(args_[i].value);
  }
  RecordComplete(name_, start_ns_, end_ns - start_ns_, converted, num_args_);
}

uint64_t DroppedEventCount() {
  TraceRegistry& registry = Registry();
  util::MutexLock lock(&registry.mu);
  uint64_t dropped = 0;
  for (ThreadRing* ring : registry.rings) {
    util::MutexLock ring_lock(&ring->mu);
    if (ring->total_recorded > ring->events.size()) {
      dropped += ring->total_recorded - ring->events.size();
    }
  }
  return dropped;
}

std::string SerializeChromeTrace() {
  TraceRegistry& registry = Registry();
  // Tallied during the ring walk (NOT via DroppedEventCount(), which
  // would re-take registry.mu and self-deadlock) and published after the
  // lock scope so metric registration never nests inside the trace lock.
  uint64_t dropped = 0;
  util::JsonWriter json;
  {
    util::MutexLock lock(&registry.mu);
    json.BeginObject();
    json.Key("displayTimeUnit").String("ms");
    json.Key("traceEvents").BeginArray();
    for (ThreadRing* ring : registry.rings) {
      util::MutexLock ring_lock(&ring->mu);
      if (ring->total_recorded > ring->events.size()) {
        dropped += ring->total_recorded - ring->events.size();
      }
      // Thread-name metadata event so Perfetto labels the track.
      json.BeginObject();
      json.Key("name").String("thread_name");
      json.Key("ph").String("M");
      json.Key("pid").Uint(1);
      json.Key("tid").Uint(ring->tid);
      json.Key("args").BeginObject();
      json.Key("name").String(ring->thread_name);
      json.EndObject();
      json.EndObject();
      // Events, oldest first (the ring overwrites in recording order, so
      // the oldest surviving event sits at total_recorded % capacity once
      // the ring has wrapped).
      const uint64_t count = ring->events.size();
      const uint64_t first =
          ring->total_recorded > count ? ring->total_recorded % count : 0;
      for (uint64_t i = 0; i < count; ++i) {
        WriteEventJson(json, *ring, ring->events[(first + i) % count],
                       registry.start_ns);
      }
    }
    json.EndArray();
    json.EndObject();
  }
  PublishDroppedEvents(dropped);
  return json.TakeString();
}

util::Status WriteTraceFile(const std::string& path) {
  const std::string serialized = SerializeChromeTrace();
  const uint64_t dropped = DroppedEventCount();
  if (dropped > 0) {
    LOG_WARNING() << "trace export '" << path << "' is incomplete: "
                  << dropped << " event(s) dropped by full thread rings "
                  << "(kRingCapacity = " << kRingCapacity
                  << " events per thread); see obs.trace.dropped_events";
  }
  return util::WriteTextFile(path, serialized);
}

}  // namespace spammass::obs
