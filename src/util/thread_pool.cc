#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace spammass::util {

namespace {
std::atomic<const ThreadPoolHooks*> g_hooks{nullptr};
/// True while this thread runs chunks; a nested call would deadlock.
thread_local bool t_in_share = false;
}  // namespace

void SetThreadPoolHooks(const ThreadPoolHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

ThreadPool::ThreadPool(uint32_t num_threads) {
  num_threads = std::max<uint32_t>(num_threads, 1);
  workers_.reserve(num_threads - 1);
  for (uint32_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  call_started_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelForChunked(
    uint64_t total, uint64_t chunk_size,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  CHECK(!t_in_share) << "ParallelForChunked called from inside a chunk body";
  if (total == 0) return;
  CHECK_GT(chunk_size, 0u);
  const Call call{&body, total, chunk_size,
                  (total + chunk_size - 1) / chunk_size};
  MutexLock call_lock(&call_mutex_);
  // No worker touches the counter between calls; publishing the call
  // under mutex_ orders this reset before their first claim.
  next_chunk_.store(0, std::memory_order_relaxed);
  if (call.num_chunks == 1 || workers_.empty()) {
    RunShare(0, call);
    return;
  }
  {
    MutexLock lock(&mutex_);
    call_ = call;
    active_workers_ = static_cast<uint32_t>(workers_.size());
    ++generation_;
  }
  call_started_.NotifyAll();
  RunShare(0, call);
  // Every worker must leave before the call's body and counter are reused.
  MutexLock lock(&mutex_);
  while (active_workers_ != 0) workers_left_.Wait(&mutex_);
}

void ThreadPool::RunShare(uint32_t participant, const Call& call) {
  // Read once so begin/end always come from the same hook table even if
  // hooks are swapped mid-share.
  const ThreadPoolHooks* hooks = g_hooks.load(std::memory_order_acquire);
  if (hooks != nullptr && hooks->task_begin != nullptr) {
    hooks->task_begin(participant);
  }
  t_in_share = true;
  for (uint64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < call.num_chunks;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    const uint64_t begin = c * call.chunk_size;
    (*call.body)(c, begin, std::min(begin + call.chunk_size, call.total));
  }
  t_in_share = false;
  if (hooks != nullptr && hooks->task_end != nullptr) {
    hooks->task_end(participant);
  }
}

void ThreadPool::WorkerLoop(uint32_t participant) {
  uint64_t seen = 0;
  for (;;) {
    Call call;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && generation_ == seen) call_started_.Wait(&mutex_);
      // No call is in flight at shutdown: the destructor must not race one.
      if (shutdown_) return;
      seen = generation_;
      call = call_;
    }
    RunShare(participant, call);
    MutexLock lock(&mutex_);
    if (--active_workers_ == 0) workers_left_.NotifyOne();
  }
}

}  // namespace spammass::util
