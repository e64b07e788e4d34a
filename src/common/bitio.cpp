#include "common/bitio.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace lzss::bits {

void BitWriter::put_bits(std::uint32_t value, unsigned n) {
  assert(n <= 32);
  if (n < 32) value &= (1u << n) - 1u;
  acc_ |= static_cast<std::uint64_t>(value) << nbits_;
  nbits_ += n;
  while (nbits_ >= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xFFu));
    acc_ >>= 8;
    nbits_ -= 8;
  }
}

void BitWriter::align_to_byte() {
  if (nbits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xFFu));
    acc_ = 0;
    nbits_ = 0;
  }
}

void BitWriter::put_aligned_byte(std::uint8_t b) {
  assert(byte_aligned());
  bytes_.push_back(b);
}

void BitWriter::put_aligned_bytes(std::span<const std::uint8_t> bytes) {
  assert(byte_aligned());
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> BitWriter::take() {
  align_to_byte();
  return std::move(bytes_);
}

void BitReader::refill_cold() noexcept { refill(); }

void BitReader::throw_out_of_data() { throw std::out_of_range("BitReader: out of data"); }

void BitReader::align_to_byte() noexcept {
  const unsigned drop = nbits_ % 8;
  acc_ >>= drop;
  nbits_ -= drop;
}

std::uint8_t BitReader::get_aligned_byte() {
  assert(bit_position() % 8 == 0);
  return static_cast<std::uint8_t>(get_bits(8));
}

void BitReader::get_aligned_bytes(std::span<std::uint8_t> out) {
  assert(bit_position() % 8 == 0);
  std::size_t i = 0;
  for (; i < out.size() && nbits_ > 0; ++i) out[i] = static_cast<std::uint8_t>(get_bits(8));
  const std::size_t rest = out.size() - i;
  if (rest == 0) return;
  if (rest > bytes_left()) throw_out_of_data();
  std::memcpy(out.data() + i, data_.data() + pos_, rest);
  pos_ += rest;
  acc_ = 0;  // it may hold a look-ahead copy of bytes just taken
}

}  // namespace lzss::bits
