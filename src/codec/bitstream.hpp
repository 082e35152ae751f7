#pragma once
//
// Bit-granular serialization.
//
// The paper's space bounds are in bits, and this library reports bit-exact
// table sizes. The codec makes those numbers real: routing labels, ranges,
// and whole per-node tables can be packed into actual bit streams and read
// back, so "this table is 1432 bits" is a property of bytes on the wire, not
// just of an accounting formula.
//
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/check.hpp"

namespace compactroute {

class BitWriter {
 public:
  /// Appends the low `width` bits of `value` (width in [0, 64]).
  void write(std::uint64_t value, int width);

  /// Appends a LEB128-style varint (7 bits + continuation per byte-group).
  void write_varint(std::uint64_t value);

  std::size_t bit_count() const { return bit_count_; }

  /// Finished stream, padded with zero bits to a byte boundary.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  /// Borrowed-buffer form: reads directly from `[data, data + size)` without
  /// owning it. The caller keeps the bytes alive (and unchanged) for the
  /// reader's lifetime — this is the decode path for mmap'd snapshots.
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Reads `width` bits (width in [0, 64]).
  std::uint64_t read(int width);

  /// Reads a varint written by BitWriter::write_varint.
  std::uint64_t read_varint();

  std::size_t bits_consumed() const { return cursor_; }

  /// True if fewer than 8 unread bits remain (stream exhausted up to byte
  /// padding).
  bool exhausted() const { return cursor_ + 8 > size_ * 8; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// The stream is LSB-first: bit i of the stream is bit (i % 8) of byte i / 8.
// On a little-endian host that makes any 8 consecutive bytes, loaded as one
// uint64, hold stream bits [8·byte, 8·byte + 64) in order, which is what the
// word-level read and write rely on.
static_assert(std::endian::native == std::endian::little,
              "BitReader/BitWriter word access assumes a little-endian host");

// The readers are inline: the snapshot decoder calls them once per field.

inline std::uint64_t BitReader::read(int width) {
  CR_CHECK(width >= 0 && width <= 64);
  CR_CHECK_MSG(cursor_ + static_cast<std::size_t>(width) <= size_ * 8,
               "bit stream underflow");
  if (width == 0) return 0;
  // One unaligned 8-byte load (byte by byte in the last 7 bytes of the
  // buffer), shifted down to the cursor; a read that straddles the word
  // (shift + width > 64) takes its top bits from the spill byte, which the
  // underflow check above guarantees is in bounds.
  const std::uint8_t* in = data_ + (cursor_ >> 3);
  const int shift = static_cast<int>(cursor_ & 7);
  const std::size_t avail = size_ - (cursor_ >> 3);
  std::uint64_t word = 0;
  if (avail >= 8) {
    std::memcpy(&word, in, 8);
  } else {
    for (std::size_t i = 0; i < avail; ++i) word |= std::uint64_t{in[i]} << (8 * i);
  }
  std::uint64_t value = word >> shift;
  if (shift + width > 64) value |= std::uint64_t{in[8]} << (64 - shift);
  cursor_ += static_cast<std::size_t>(width);
  return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
}

inline std::uint64_t BitReader::read_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  // A varint never changes the cursor's bit offset: from a byte-aligned
  // cursor every group is one whole byte; otherwise each group goes through
  // the word-level read(8).
  const bool aligned = (cursor_ & 7) == 0;
  for (;;) {
    std::uint64_t group;
    if (aligned) {
      CR_CHECK_MSG(cursor_ + 8 <= size_ * 8, "bit stream underflow");
      group = data_[cursor_ >> 3];
      cursor_ += 8;
    } else {
      group = read(8);
    }
    value |= (group & 0x7f) << shift;
    if (!(group & 0x80)) break;
    shift += 7;
    CR_CHECK_MSG(shift < 64, "varint too long");
  }
  return value;
}

}  // namespace compactroute
