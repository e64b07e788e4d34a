#include "common/bitio.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace lzss::bits {

void BitWriter::align_to_byte() {
  if (nbits_ > 0) {
    buf_[pos_++] = static_cast<std::uint8_t>(acc_);
    acc_ = 0;
    nbits_ = 0;
  }
}

void BitWriter::put_aligned_byte(std::uint8_t b) {
  assert(byte_aligned());
  reserve_bits(8);
  buf_[pos_++] = b;
}

void BitWriter::put_aligned_bytes(std::span<const std::uint8_t> bytes) {
  assert(byte_aligned());
  reserve_bits(8 * bytes.size());
  if (!bytes.empty()) std::memcpy(buf_.data() + pos_, bytes.data(), bytes.size());
  pos_ += bytes.size();
}

std::vector<std::uint8_t> BitWriter::take() {
  align_to_byte();
  buf_.resize(pos_);
  pos_ = 0;
  return std::exchange(buf_, {});
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
