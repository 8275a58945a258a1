// Streaming checksums for the binary graph container. The v2.2 container
// (graph/graph_io.cc, docs/graph_format.md) checksums its header page and
// every section so truncation and bit corruption are detected before the
// CSR arrays are trusted. Neither hash is cryptographic — they guard against
// accidental corruption only.

#ifndef SPAMMASS_UTIL_CHECKSUM_H_
#define SPAMMASS_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace spammass::util {

/// Incremental FNV-1a 64-bit hasher (the canonical byte-serial form). Feed
/// byte ranges in any chunking; the digest depends only on the concatenated
/// byte stream. Each byte's multiply depends on the previous byte's result,
/// so throughput is capped by the multiplier latency (~4 cycles/byte) —
/// fine for headers and small records, too slow for multi-megabyte arrays.
class Fnv1a64 {
 public:
  static constexpr uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  /// Absorbs `size` bytes starting at `data`.
  void Update(const void* data, size_t size);

  /// Digest of everything absorbed so far.
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = kOffsetBasis;
};

/// One-shot digest of a byte range.
uint64_t Fnv1a64Digest(const void* data, size_t size);

/// Eight interleaved word-wide FNV-1a lanes. The stream is cut into
/// 64-byte blocks; word `k` of each block (64-bit little-endian) feeds
/// lane `k` with one FNV-1a step (`lane = (lane ^ word) * kPrime`), so a
/// block costs eight independent multiplies instead of sixty-four chained
/// ones and the hash moves at memory bandwidth (~50x the byte-serial
/// class above). digest() folds, through one byte-serial FNV-1a pass: the
/// lane states (each as eight little-endian bytes, lane 0 first), the
/// raw bytes of the final partial block, and the total stream length
/// (eight little-endian bytes). Like the serial form, the result depends
/// only on the concatenated byte stream, never on Update chunking. Any
/// single-bit flip flips its word, its lane, and the digest. This is the
/// header-page and section checksum of the v2.2 binary graph format
/// (docs/graph_format.md).
class Fnv1a64x8 {
 public:
  static constexpr size_t kLanes = 8;
  static constexpr size_t kBlockBytes = 64;

  /// Absorbs `size` bytes starting at `data`.
  void Update(const void* data, size_t size);

  /// Digest of everything absorbed so far.
  uint64_t digest() const;

 private:
  uint64_t lanes_[kLanes] = {
      Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
      Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
      Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
  // Carry for stream tails that don't fill a 64-byte block yet.
  unsigned char pending_[kBlockBytes];
  size_t pending_fill_ = 0;
  uint64_t total_bytes_ = 0;
};

/// One-shot interleaved digest of a byte range.
uint64_t Fnv1a64x8Digest(const void* data, size_t size);

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_CHECKSUM_H_
