#include "codec/bitstream.hpp"

#include <cstring>

namespace compactroute {

void BitWriter::write(std::uint64_t value, int width) {
  CR_CHECK(width >= 0 && width <= 64);
  if (width < 64) {
    CR_CHECK_MSG(value < (std::uint64_t{1} << width), "value does not fit width");
  }
  if (width == 0) return;
  // OR the value into the partial last byte and the bytes after it: at most
  // 7 + 64 = 71 bits, i.e. one 8-byte little-endian word plus a spill byte.
  const std::size_t byte = bit_count_ >> 3;
  const int shift = static_cast<int>(bit_count_ & 7);
  bit_count_ += static_cast<std::size_t>(width);
  bytes_.resize((bit_count_ + 7) >> 3);
  std::uint8_t* out = bytes_.data() + byte;
  const std::size_t span = bytes_.size() - byte;
  if (span >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, out, 8);
    word |= value << shift;
    std::memcpy(out, &word, 8);
    if (span > 8) out[8] = static_cast<std::uint8_t>(value >> (64 - shift));
  } else {
    const std::uint64_t word = value << shift;
    for (std::size_t i = 0; i < span; ++i) {
      out[i] = static_cast<std::uint8_t>(out[i] | (word >> (8 * i)));
    }
  }
}

void BitWriter::write_varint(std::uint64_t value) {
  do {
    const std::uint64_t group = value & 0x7f;
    value >>= 7;
    write(group | (value ? 0x80 : 0), 8);
  } while (value);
}

}  // namespace compactroute
