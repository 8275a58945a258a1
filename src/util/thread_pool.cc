#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace spammass::util {

namespace {
std::atomic<const ThreadPoolHooks*> g_hooks{nullptr};
}  // namespace

void SetThreadPoolHooks(const ThreadPoolHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

const ThreadPoolHooks* GetThreadPoolHooks() {
  return g_hooks.load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(uint32_t num_threads) {
  num_threads = std::max<uint32_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mutex_);
    CHECK(!shutdown_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  while (in_flight_ != 0) all_done_.Wait(&mutex_);
}

void ThreadPool::ParallelForChunked(
    uint64_t total, uint64_t chunk_size,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  if (total == 0) return;
  CHECK_GT(chunk_size, 0u);
  const uint64_t num_chunks = (total + chunk_size - 1) / chunk_size;
  if (num_chunks == 1) {
    // Nothing to shard; skip the cross-thread hop.
    body(0, 0, total);
    return;
  }

  // Per-call completion latch. Waiting on the pool-global in_flight_
  // counter (the old scheme) made one caller's call block on
  // *other* callers' tasks — and on Submits racing in between chunk
  // submission and the wait. The latch counts exactly this call's chunks,
  // however many that is — chunk counts above num_threads() just queue.
  struct Latch {
    Mutex m;
    CondVar cv;
    uint64_t remaining SPAMMASS_GUARDED_BY(m) = 0;
  } latch;

  // Bundle chunks into at most one task per worker. The chunk decomposition
  // (and therefore every body(c, begin, end) call) is unchanged — only the
  // grouping of chunks into queue entries varies with the worker count, so
  // callers relying on chunk-indexed determinism are unaffected, while the
  // queue-mutex traffic per call drops from num_chunks to num_tasks.
  const uint64_t num_tasks = std::min<uint64_t>(num_chunks, num_threads());
  const uint64_t chunks_per_task = (num_chunks + num_tasks - 1) / num_tasks;
  {
    MutexLock lock(&latch.m);
    latch.remaining = num_tasks;
  }
  for (uint64_t t = 0; t < num_tasks; ++t) {
    const uint64_t first = t * chunks_per_task;
    const uint64_t last = std::min(first + chunks_per_task, num_chunks);
    Submit([&body, &latch, chunk_size, total, first, last] {
      for (uint64_t c = first; c < last; ++c) {
        const uint64_t begin = c * chunk_size;
        const uint64_t end = std::min(begin + chunk_size, total);
        body(c, begin, end);
      }
      // Notify while holding the lock: the waiter cannot wake, observe
      // remaining == 0, and destroy the latch before we are done with it.
      MutexLock lk(&latch.m);
      if (--latch.remaining == 0) latch.cv.NotifyAll();
    });
  }
  MutexLock lk(&latch.m);
  while (latch.remaining != 0) latch.cv.Wait(&latch.m);
}

void ThreadPool::WorkerLoop(uint32_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && tasks_.empty()) task_available_.Wait(&mutex_);
      // The loop exits with the lock held and shutdown_ || !tasks_.empty();
      // an empty queue therefore means shutdown. Queued tasks drain first.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Read once so begin/end always come from the same hook table even if
    // hooks are swapped mid-task.
    const ThreadPoolHooks* hooks = GetThreadPoolHooks();
    if (hooks != nullptr && hooks->task_begin != nullptr) {
      hooks->task_begin(worker_index);
    }
    task();
    if (hooks != nullptr && hooks->task_end != nullptr) {
      hooks->task_end(worker_index);
    }
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace spammass::util
