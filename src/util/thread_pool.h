// Small fixed-size thread pool with a parallel-for helper. PageRank sweeps
// over CSR rows are embarrassingly parallel in the Jacobi scheme (each
// output entry reads only the previous iterate), so the solver shards the
// node range across workers.
//
// Thread-safety: Submit, Wait, and ParallelForChunked may all be called
// concurrently from multiple caller threads. ParallelForChunked tracks its
// own chunks through a per-call latch, so two overlapping calls (or one
// racing unrelated Submits) each return as soon as *their* work finishes —
// they never wait on each other's tasks. Wait() is the global variant: it
// blocks until the pool is fully drained, including tasks submitted by
// other threads while waiting.

#ifndef SPAMMASS_UTIL_THREAD_POOL_H_
#define SPAMMASS_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spammass::util {

/// Optional telemetry hooks invoked by every pool worker around each
/// executed task. util cannot depend on the obs layer, so obs installs
/// its instrumentation through this table instead; with no hooks
/// installed (the default) a worker pays one atomic pointer load per
/// task. `worker_index` is the worker's index within its pool.
struct ThreadPoolHooks {
  void (*task_begin)(uint32_t worker_index) = nullptr;
  void (*task_end)(uint32_t worker_index) = nullptr;
};

/// Installs process-wide hooks (nullptr uninstalls). `hooks` must outlive
/// every pool; callers pass a pointer to a static table. Tasks already
/// executing may complete under the previous table.
void SetThreadPoolHooks(const ThreadPoolHooks* hooks);

/// Currently installed hooks, or nullptr.
const ThreadPoolHooks* GetThreadPoolHooks();

/// Fixed pool of worker threads executing submitted tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(uint32_t num_threads);

  /// Drains every queued task, then joins the workers. Submitting from a
  /// task while the destructor runs is a programming error (CHECK).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues a task. Must not be called from code already holding the
  /// pool mutex (i.e. never from inside the locked sections of this class).
  void Submit(std::function<void()> task) SPAMMASS_EXCLUDES(mutex_);

  /// Blocks until the pool is idle: every task submitted before or during
  /// the wait (by any thread) has finished.
  void Wait() SPAMMASS_EXCLUDES(mutex_);

  /// Runs `body(chunk_index, begin, end)` over [0, total) split into fixed
  /// `chunk_size` pieces: chunk c covers [c·chunk_size, min((c+1)·chunk_size,
  /// total)). The decomposition depends only on (total, chunk_size) — never
  /// on the worker count — so callers that accumulate per-chunk partial
  /// results indexed by `chunk_index` and reduce them in chunk order get
  /// bit-identical floating-point sums for every thread count (the
  /// deterministic-reduction contract the PageRank kernels rely on). Chunks
  /// may execute in any order and more chunks than workers is fine; the
  /// call returns when all of its own chunks are done, never waiting on
  /// concurrent callers'.
  void ParallelForChunked(
      uint64_t total, uint64_t chunk_size,
      const std::function<void(uint64_t, uint64_t, uint64_t)>& body)
      SPAMMASS_EXCLUDES(mutex_);

 private:
  void WorkerLoop(uint32_t worker_index) SPAMMASS_EXCLUDES(mutex_);

  /// Immutable after construction (only the constructor appends), so
  /// num_threads() and join-at-destruction read it without the lock.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ SPAMMASS_GUARDED_BY(mutex_);
  /// Queued + currently executing tasks.
  uint64_t in_flight_ SPAMMASS_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SPAMMASS_GUARDED_BY(mutex_) = false;
};

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_THREAD_POOL_H_
