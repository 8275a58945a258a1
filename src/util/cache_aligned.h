// Cache-line-aligned heap storage for the solver's interleaved lane
// buffers. glibc returns large blocks 16 bytes past a 64-byte boundary, so
// a plain std::vector<double> of K-lane rows has every 128-byte (K = 16)
// row straddling three cache lines instead of two. A LaneVector starts on
// a line boundary, so the row of node x starts x·K·sizeof(T) bytes past
// one: K = 16 doubles span exactly 2 lines, K = 8 exactly 1.

#ifndef SPAMMASS_UTIL_CACHE_ALIGNED_H_
#define SPAMMASS_UTIL_CACHE_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace spammass::util {

/// Line size every LaneVector block is aligned to (x86-64 and AArch64).
inline constexpr std::size_t kCacheLineBytes = 64;

/// Stateless allocator returning kCacheLineBytes-aligned blocks.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(
        count * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* ptr, std::size_t count) noexcept {
    ::operator delete(ptr, count * sizeof(T),
                      std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose data() is always cache-line aligned.
template <typename T>
using LaneVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_CACHE_ALIGNED_H_
