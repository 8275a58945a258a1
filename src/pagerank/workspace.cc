#include "pagerank/workspace.h"

namespace spammass::pagerank {

util::ThreadPool* SolverWorkspace::EnsurePool(uint32_t num_threads) {
  if (num_threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_threads_ != num_threads) {
    pool_.reset();  // join the old workers before spawning replacements
    pool_ = std::make_unique<util::ThreadPool>(num_threads);
    pool_threads_ = num_threads;
  }
  return pool_.get();
}

}  // namespace spammass::pagerank
