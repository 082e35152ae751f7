#include "io/snapshot_mmap.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define CR_HAVE_MMAP 1
#endif

namespace compactroute {

#if defined(CR_HAVE_MMAP)

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw SnapshotError("mmap " + path + ": " + what + ": " +
                      std::strerror(errno));
}

}  // namespace

MappedSnapshot::MappedSnapshot(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "open");

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fstat");
  }
  if (st.st_size == 0) {
    ::close(fd);
    throw SnapshotError("mmap " + path + ": empty file");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);

  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is not
  // needed past this point regardless of mmap's outcome.
  ::close(fd);
  if (mapped == MAP_FAILED) fail(path, "mmap");

  // Decode is one front-to-back sweep (directory first, then each payload in
  // offset order); tell the pager so readahead is aggressive and the first
  // touch of each page does not stall the load.
#if defined(__linux__)
  (void)::madvise(mapped, size, MADV_SEQUENTIAL);
  (void)::madvise(mapped, size, MADV_WILLNEED);
#endif

  data_ = static_cast<const std::uint8_t*>(mapped);
  size_ = size;
}

void MappedSnapshot::release() noexcept {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }
}

#else  // !CR_HAVE_MMAP — fall back to a heap read so the API still works.

MappedSnapshot::MappedSnapshot(const std::string& path) : path_(path) {
  const std::vector<std::uint8_t> bytes = read_snapshot_file(path);
  if (bytes.empty()) throw SnapshotError("mmap " + path + ": empty file");
  auto* copy = new std::uint8_t[bytes.size()];
  std::memcpy(copy, bytes.data(), bytes.size());
  data_ = copy;
  size_ = bytes.size();
}

void MappedSnapshot::release() noexcept {
  delete[] data_;
  data_ = nullptr;
  size_ = 0;
}

#endif

MappedSnapshot::~MappedSnapshot() { release(); }

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

SnapshotStack MappedSnapshot::decode() const {
  return decode_snapshot(data_, size_);
}

}  // namespace compactroute
