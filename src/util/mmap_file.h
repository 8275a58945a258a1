// Read-only memory-mapped file. The out-of-core graph path
// (graph::ReadBinaryMmap) maps the v2.2 paged binary format and hands
// WebGraph spans that point straight into the mapping, so "loading" a
// graph costs a handful of page faults instead of a bulk copy and the
// page cache — not the process heap — bounds the graph size.
//
// The mapping is MAP_PRIVATE + PROT_READ: the file on disk can never be
// modified through it, and writes through the returned pointers are a
// fault by construction. Callers that need mutable arrays copy out.
// MAP_PRIVATE does not isolate the mapping from later writes to the file,
// so the file must not be rewritten or truncated while it is mapped.

#ifndef SPAMMASS_UTIL_MMAP_FILE_H_
#define SPAMMASS_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace spammass::util {

/// Move-only owner of one read-only file mapping. Unmapped on
/// destruction. All sizes are validated up front by callers before any
/// access past data()[size()-1]; the class itself never touches the
/// mapped bytes, so a well-behaved caller cannot SIGBUS on a file that
/// matches its stat() size.
class MmapFile {
 public:
  /// Maps `path` read-only in full. Fails with IoError if the file
  /// cannot be opened, stat'ed, or mapped. An empty file maps
  /// successfully with size() == 0 and data() == nullptr.
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// First byte of the mapping (nullptr iff size() == 0).
  const uint8_t* data() const { return data_; }
  /// Mapped length in bytes == the file size at Open time.
  uint64_t size() const { return size_; }
  /// Path the mapping was opened from (for error messages).
  const std::string& path() const { return path_; }

  /// Bytes of the mapping currently resident in memory, computed via
  /// mincore. Returns 0 on an empty mapping or if the kernel query
  /// fails; the value is advisory (it races with page reclaim) and
  /// exists for the `graph stats` mapped-vs-resident report and the
  /// graph.mmap_resident_bytes gauge.
  uint64_t ResidentBytes() const;

  /// Resident bytes within [offset, offset + length) of the mapping, the
  /// per-section variant of ResidentBytes(): the queried range is widened
  /// to page boundaries for the mincore call and each resident page
  /// contributes only its overlap with the requested byte range, so
  /// summing disjoint section ranges never double-counts and never
  /// exceeds ResidentBytes() by more than the shared boundary pages.
  /// Ranges past EOF are clamped; returns 0 on an empty mapping, a
  /// fully-clamped range, or a failed kernel query. Advisory, like
  /// ResidentBytes().
  uint64_t ResidentBytesInRange(uint64_t offset, uint64_t length) const;

  /// Unmaps the pages of [offset, offset + length), widened to whole
  /// pages, from this process (madvise MADV_DONTNEED), so they stop
  /// counting toward its RSS. No byte changes: the mapping is a read-only
  /// private file mapping, so a later read maps the page back from the
  /// page cache or the file. Ranges past EOF are clamped; advisory, so a
  /// failed kernel call is ignored.
  void DropResidentPages(uint64_t offset, uint64_t length);

 private:
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_MMAP_FILE_H_
