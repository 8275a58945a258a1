#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace spammass::util {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " failed for '" + path +
                         "': " + std::strerror(errno));
}

}  // namespace

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("mmap open: '" + path + "' is not a regular file");
  }

  MmapFile file;
  file.path_ = path;
  file.size_ = static_cast<uint64_t>(st.st_size);
  if (file.size_ > 0) {
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status = Errno("mmap", path);
      ::close(fd);
      return status;
    }
    file.data_ = static_cast<const uint8_t*>(addr);
  }
  // The mapping keeps its own reference to the file; the descriptor is
  // no longer needed.
  ::close(fd);
  return file;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

uint64_t MmapFile::ResidentBytes() const {
  return ResidentBytesInRange(0, size_);
}

uint64_t MmapFile::ResidentBytesInRange(uint64_t offset,
                                        uint64_t length) const {
  if (data_ == nullptr || size_ == 0 || offset >= size_) return 0;
  if (length > size_ - offset) length = size_ - offset;
  if (length == 0) return 0;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t first_page = offset / page;
  const uint64_t last_page = (offset + length - 1) / page;
  const uint64_t num_pages = last_page - first_page + 1;
  std::vector<unsigned char> vec(num_pages);
  // The mapping always covers whole pages (mmap rounds the file size up),
  // so querying through the end of the last touched page stays in bounds
  // even when the range ends mid-page or the file ends mid-page.
  if (::mincore(const_cast<uint8_t*>(data_) + first_page * page,
                num_pages * page, vec.data()) != 0) {
    return 0;
  }
  uint64_t bytes = 0;
  const uint64_t range_end = offset + length;
  for (uint64_t p = 0; p < num_pages; ++p) {
    if ((vec[p] & 1u) == 0) continue;
    // Each resident page contributes its overlap with [offset, range_end),
    // not the full page, so byte totals stay exact at both edges.
    const uint64_t page_begin = (first_page + p) * page;
    const uint64_t begin = page_begin > offset ? page_begin : offset;
    const uint64_t end =
        page_begin + page < range_end ? page_begin + page : range_end;
    bytes += end - begin;
  }
  return bytes;
}

void MmapFile::DropResidentPages(uint64_t offset, uint64_t length) {
  if (data_ == nullptr || offset >= size_) return;
  if (length > size_ - offset) length = size_ - offset;
  if (length == 0) return;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset / page * page;
  ::madvise(const_cast<uint8_t*>(data_) + begin, offset + length - begin,
            MADV_DONTNEED);
}

}  // namespace spammass::util
