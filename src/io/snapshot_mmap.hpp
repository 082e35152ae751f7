#pragma once
//
// mmap-backed zero-copy snapshot loading.
//
// The snapshot container (DESIGN.md §8) was designed for pointing rather than
// reading: offsets are absolute and payloads tile the file exactly, so a
// mapped file can be validated and decoded in place. MappedSnapshot mmaps the
// file read-only and hands out the raw byte span; decode goes through the
// borrowed-buffer decode_snapshot(data, size) overload, so the only copies
// made are the decoded components themselves — the file contents are never
// duplicated into a heap buffer (read_snapshot_file's whole-file read and the
// old per-section payload copies both disappear).
//
// Every validation the vector path performs — magic, version, directory CRC,
// exact offset tiling, per-section CRC32 — runs identically against the
// mapped bytes, and every failure (including open/fstat/mmap failures and a
// file that changed size underneath us) throws the same typed SnapshotError.
//
#include <cstddef>
#include <cstdint>
#include <string>

#include "io/snapshot.hpp"

namespace compactroute {

/// A read-only memory mapping of a snapshot file. Move-only; the mapping is
/// released (munmap) on destruction. The span stays valid and immutable for
/// the object's lifetime — decode borrows it, ServerEpoch (runtime/server.hpp)
/// keeps it alive until the epoch's last in-flight request retires.
class MappedSnapshot {
 public:
  /// Maps `path` read-only with MADV_SEQUENTIAL|MADV_WILLNEED hints (the
  /// decode pass is one sequential sweep). Throws SnapshotError if the file
  /// cannot be opened, stat'd, or mapped, or if it is empty.
  explicit MappedSnapshot(const std::string& path);
  ~MappedSnapshot();

  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Validates and decodes the mapped bytes (decode_snapshot borrowed-buffer
  /// path). The returned stack owns its storage; it does NOT require this
  /// mapping to outlive it.
  SnapshotStack decode() const;

 private:
  void release() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace compactroute
