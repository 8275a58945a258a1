// Process resource telemetry: /proc/self sampling into the global
// MetricsRegistry.
//
// Two pieces:
//   * SampleResourceUsage()/PublishResourceUsage() — one synchronous
//     snapshot of the process' memory, page-fault, and block-IO state,
//     parsed from /proc/self/{statm,status,stat,io}. The parsers are
//     exposed on raw text so tests can feed fixture files; each /proc
//     source degrades independently (a missing or unparsable file leaves
//     its group's has_* flag false and publishes nothing — absent, not
//     zero).
//   * ResourceSampler — a background thread that publishes a snapshot
//     every period. Started/stopped by the CLI's ObsSession so every
//     subcommand gets RSS and fault curves next to its counters.
//
// Published metrics (names are Prometheus-manglable, see
// MetricsRegistry::SnapshotPrometheus):
//   gauges    process.rss_bytes, process.vm_bytes, process.rss_peak_bytes
//   counters  process.minor_faults, process.major_faults,
//             process.io_read_bytes, process.io_write_bytes,
//             process.resource_samples
// The kernel values behind the counters are cumulative per process;
// PublishResourceUsage advances each registry counter by the positive
// delta since the previous published snapshot, so registry counters stay
// monotonic even if a racing reader observes /proc between samples.
//
// This unit (plus util/mmap_file.cc's mincore probe and the
// perf_event_open wrapper in obs/perf_counters.cc) is the only sanctioned
// home for /proc and kernel-introspection calls — the `resource-isolation`
// lint rule (tools/spammass_lint.py) enforces the boundary.

#ifndef SPAMMASS_OBS_RESOURCE_H_
#define SPAMMASS_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spammass::obs {

/// Point-in-time resource usage of this process. Groups whose /proc
/// source was unavailable (non-Linux, restricted /proc) leave their
/// has_* flag false and their fields zero.
struct ResourceUsage {
  bool has_memory = false;  // rss/vm (statm) + peak (status)
  bool has_faults = false;  // minor/major faults (stat)
  bool has_io = false;      // read/write block-IO bytes (io)
  uint64_t rss_bytes = 0;
  uint64_t vm_bytes = 0;
  uint64_t rss_peak_bytes = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
};

/// Parses /proc/self/statm text ("size resident shared ..." in pages);
/// `page_bytes` converts pages to bytes. False on malformed input.
bool ParseProcStatm(std::string_view text, uint64_t page_bytes,
                    uint64_t* vm_bytes, uint64_t* rss_bytes);

/// Parses /proc/self/status text for the "VmHWM: <n> kB" peak-RSS line.
/// False when the line is missing or malformed.
bool ParseProcStatus(std::string_view text, uint64_t* rss_peak_bytes);

/// Parses /proc/self/stat text for minflt/majflt (fields 10 and 12).
/// Robust to comm names containing spaces or parentheses (scans from the
/// last ')'). False on malformed input.
bool ParseProcStat(std::string_view text, uint64_t* minor_faults,
                   uint64_t* major_faults);

/// Parses /proc/self/io text for the read_bytes/write_bytes lines (actual
/// block-device traffic, not rchar/wchar). False when either is missing.
bool ParseProcIo(std::string_view text, uint64_t* read_bytes,
                 uint64_t* write_bytes);

/// Reads the current process usage from /proc/self. Never fails: each
/// group that cannot be read is simply absent from the result.
ResourceUsage SampleResourceUsage();

/// Publishes `usage` into the global MetricsRegistry (gauges set, counters
/// advanced by the positive delta vs. the previously published snapshot).
/// Absent groups publish nothing. Thread-safe; also increments
/// process.resource_samples per call that carried at least one group.
void PublishResourceUsage(const ResourceUsage& usage);

/// Background thread publishing SampleResourceUsage() every period.
/// Start/Stop are idempotent and thread-safe; the destructor stops. The
/// thread holds no locks while sampling, so Stop() latency is bounded by
/// one /proc read, not one period.
class ResourceSampler {
 public:
  struct Options {
    /// Sampling period. Must be >= 1 to Start(); the CLI maps its
    /// `--resource-sample-ms 0` (sampler off) to never calling Start().
    int64_t period_ms = 100;
  };

  ResourceSampler();
  explicit ResourceSampler(Options options);
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Starts the background thread (no-op when already running).
  void Start() SPAMMASS_EXCLUDES(mu_);

  /// Signals the thread and joins it (no-op when not running). A final
  /// sample is NOT taken here — callers wanting exit-time values call
  /// SampleOnce() after Stop() (ObsSession does, so even a run shorter
  /// than one period reports real numbers).
  void Stop() SPAMMASS_EXCLUDES(mu_);

  /// Takes and publishes one sample synchronously. Safe concurrently with
  /// the background thread.
  void SampleOnce();

  /// Samples published so far (background + synchronous).
  uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void Loop(uint64_t generation) SPAMMASS_EXCLUDES(mu_);

  const Options options_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool running_ SPAMMASS_GUARDED_BY(mu_) = false;
  bool stop_requested_ SPAMMASS_GUARDED_BY(mu_) = false;
  /// Bumped by every Start. The loop thread exits when either
  /// stop_requested_ is set or the generation moved on — the latter keeps
  /// a Start that interleaves between a concurrent Stop's notify and its
  /// join from resurrecting the old thread's run condition (it would
  /// otherwise reset stop_requested_ and leave the join waiting forever).
  uint64_t generation_ SPAMMASS_GUARDED_BY(mu_) = 0;
  std::thread thread_ SPAMMASS_GUARDED_BY(mu_);
  std::atomic<uint64_t> samples_{0};
};

}  // namespace spammass::obs

#endif  // SPAMMASS_OBS_RESOURCE_H_
