// Fork-join thread pool with one operation, ParallelForChunked. PageRank
// sweeps over CSR rows are embarrassingly parallel in the Jacobi scheme
// (each output entry reads only the previous iterate), so the solver
// splits the node range into chunks and runs them on every thread.
//
// Contract:
//   * Participants. A pool of n threads spawns n − 1 workers; the thread
//     calling ParallelForChunked is the n-th. Caller and workers claim
//     chunks one at a time from one atomic counter, and the call returns
//     once every participant has left it.
//   * Serialized callers. Concurrent calls on one pool take turns on a
//     call mutex, each running on all of the pool's threads.
//   * No nesting. A chunk body that calls ParallelForChunked (on any pool)
//     CHECK-fails instead of deadlocking.

#ifndef SPAMMASS_UTIL_THREAD_POOL_H_
#define SPAMMASS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spammass::util {

/// Optional telemetry hooks invoked around each participant's share of a
/// call (the chunks it claimed). util cannot depend on the obs layer, so
/// obs installs its instrumentation through this table instead; with no
/// hooks installed (the default) a share pays one atomic pointer load.
/// `participant` is 0 for the calling thread, 1..n−1 for the workers.
struct ThreadPoolHooks {
  void (*task_begin)(uint32_t participant) = nullptr;
  void (*task_end)(uint32_t participant) = nullptr;
};

/// Installs process-wide hooks (nullptr uninstalls). `hooks` must outlive
/// every pool; callers pass a pointer to a static table. Shares already
/// running may complete under the previous table.
void SetThreadPoolHooks(const ThreadPoolHooks* hooks);

class ThreadPool {
 public:
  /// Spawns `num_threads − 1` workers (`num_threads` is at least 1).
  explicit ThreadPool(uint32_t num_threads);

  /// Joins the workers. Must not race a ParallelForChunked call.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants per call: the workers plus the calling thread.
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size()) + 1;
  }

  /// Runs `body(chunk_index, begin, end)` exactly once for every chunk of
  /// [0, total) split into fixed `chunk_size` pieces: chunk c covers
  /// [c·chunk_size, min((c+1)·chunk_size, total)). The decomposition
  /// depends only on (total, chunk_size), never on the thread count, so
  /// per-chunk partials indexed by `chunk_index` and reduced in chunk order
  /// are bit-identical for every thread count (the deterministic-reduction
  /// contract the PageRank kernels rely on). Chunks run in any order; a
  /// single chunk, or a pool without workers, runs inline on the caller in
  /// chunk order.
  void ParallelForChunked(
      uint64_t total, uint64_t chunk_size,
      const std::function<void(uint64_t, uint64_t, uint64_t)>& body)
      SPAMMASS_EXCLUDES(call_mutex_, mutex_);

 private:
  struct Call {
    const std::function<void(uint64_t, uint64_t, uint64_t)>* body = nullptr;
    uint64_t total = 0;
    uint64_t chunk_size = 0;
    uint64_t num_chunks = 0;
  };

  void WorkerLoop(uint32_t participant) SPAMMASS_EXCLUDES(mutex_);

  /// Claims and runs chunks of `call` until none remain.
  void RunShare(uint32_t participant, const Call& call);

  /// Immutable after construction, so read without the lock.
  std::vector<std::thread> workers_;

  /// Held for a whole call.
  Mutex call_mutex_;
  Mutex mutex_;
  CondVar call_started_;
  CondVar workers_left_;
  Call call_ SPAMMASS_GUARDED_BY(mutex_);
  /// Bumped by every call that wakes the workers.
  uint64_t generation_ SPAMMASS_GUARDED_BY(mutex_) = 0;
  /// Workers still inside the current call.
  uint32_t active_workers_ SPAMMASS_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SPAMMASS_GUARDED_BY(mutex_) = false;
  /// Next unclaimed chunk of the current call, reset before the call is
  /// published. Its own cache line keeps the claims off the lock's.
  alignas(64) std::atomic<uint64_t> next_chunk_{0};
};

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_THREAD_POOL_H_
