// Bit-granular I/O in the Deflate (RFC 1951) bit order.
//
// Deflate packs bits into bytes starting at the least-significant bit.
// Non-Huffman fields (extra bits, lengths) are written LSB-first; Huffman
// codes are written starting from the most-significant bit of the code.
// BitWriter/BitReader implement both conventions with a 64-bit accumulator:
// the writer flushes whole bytes with one word store, the reader refills with
// one word load.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace lzss::bits {

/// Reverses the low @p n <= 32 bits of @p v (used to emit Huffman codes
/// MSB-first): the whole word is reversed in five swaps, then shifted down.
[[nodiscard]] constexpr std::uint32_t reverse_bits(std::uint32_t v, unsigned n) noexcept {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  v = ((v >> 8) & 0x00FF00FFu) | ((v & 0x00FF00FFu) << 8);
  v = (v >> 16) | (v << 16);
  return n == 0 ? 0 : v >> (32 - n);
}

/// Accumulates bits LSB-first into a growing byte buffer.
///
/// Bits gather in a 64-bit accumulator. Each put stores the whole
/// accumulator with one 8-byte store at the first incomplete byte, then
/// keeps only the bits of that byte, so every whole byte is flushed at once.
/// The buffer keeps at least 8 bytes of slack past that byte for the store.
/// A writer appends at any bit offset, so blocks chain into one stream.
class BitWriter {
 public:
  BitWriter() = default;

  /// Fields that pack() makes room for at once.
  static constexpr std::size_t kPackChunk = 4096;

  /// A field for pack(): the low @p n bits of @p value, no bit set above.
  struct Field {
    std::uint64_t value;
    unsigned n;
  };

  /// Appends the low @p n bits of @p value, LSB first. n must be <= 32.
  void put_bits(std::uint32_t value, unsigned n) {
    assert(n <= 32);
    const Field f{value & ((std::uint64_t{1} << n) - 1), n};
    pack(1, n, [f](std::size_t) { return f; });
  }

  /// Appends an @p n bit Huffman code, MSB of the code first.
  void put_huffman(std::uint32_t code, unsigned n) { put_bits(reverse_bits(code, n), n); }

  /// Appends the fields @p field(0) ... @p field(count - 1), each at most
  /// @p max_bits <= 56 wide. The accumulator stays in registers for the
  /// whole loop and each field costs one 8-byte store. Room is made once per
  /// kPackChunk fields, so the buffer outgrows the stream by at most
  /// kPackChunk * max_bits bits and the store's slack, not by the worst case
  /// of all @p count.
  template <class FieldFn>
  void pack(std::size_t count, unsigned max_bits, FieldFn field) {
    assert(max_bits <= 56);
    for (std::size_t begin = 0; begin < count; begin += kPackChunk) {
      const std::size_t end = std::min(count, begin + kPackChunk);
      reserve_bits((end - begin) * max_bits);
      // Locals, not members: a store into the byte buffer may alias any
      // member, which would send them through memory on every field.
      std::uint8_t* const out = buf_.data();
      std::uint64_t acc = acc_;
      unsigned nbits = nbits_;
      std::size_t pos = pos_;
      for (std::size_t i = begin; i < end; ++i) {
        const Field f = field(i);
        assert(f.n <= max_bits && f.value >> f.n == 0);
        acc |= f.value << nbits;
        nbits += f.n;
        store_le64(out + pos, acc);
        pos += nbits / 8;
        acc >>= nbits & ~7u;
        nbits &= 7;
      }
      acc_ = acc;
      nbits_ = nbits;
      pos_ = pos;
    }
  }

  /// Pads with zero bits to the next byte boundary.
  void align_to_byte();

  /// Appends a raw byte; the writer must be byte-aligned.
  void put_aligned_byte(std::uint8_t b);

  /// Appends @p bytes; the writer must be byte-aligned.
  void put_aligned_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool byte_aligned() const noexcept { return nbits_ == 0; }
  /// Total number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept { return pos_ * 8 + nbits_; }

  /// Bytes the buffer holds: those written, the slack and the room pack()
  /// made for its last chunk.
  [[nodiscard]] std::size_t buffer_bytes() const noexcept { return buf_.size(); }

  /// Finishes the stream (pads to a byte) and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> take();

 private:
  static constexpr std::size_t kSlack = 8;  // room for the 8-byte store

  /// Makes room for @p n more bits.
  void reserve_bits(std::size_t n) {
    const std::size_t need = pos_ + (nbits_ + n + 7) / 8 + kSlack;
    if (need > buf_.size()) buf_.resize(need);
  }

  static void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof v);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;    // complete bytes written
  std::uint64_t acc_ = 0;  // pending bits, LSB-first; those of byte pos_
  unsigned nbits_ = 0;     // number of pending bits, < 8
};

/// Reads bits LSB-first from a byte buffer.
///
/// Bits sit in a 64-bit accumulator. refill() tops it up with one 8-byte
/// load while at least 8 input bytes remain and byte loads after that, so
/// it never reads past the span. Table decoders refill once, then index
/// tables with window() and consume() several fields without reloading.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  /// Loads input until at least 56 bits are buffered or the input ends.
  void refill() noexcept {
    if (data_.size() - pos_ >= 8) {
      // Bits of acc_ at and above nbits_ are zero or already equal to the
      // next input bits, so OR-ing the whole word in is exact; only the
      // whole bytes that fit are counted as loaded.
      acc_ |= load_le64(data_.data() + pos_) << nbits_;
      const unsigned bytes = (63 - nbits_) / 8;
      pos_ += bytes;
      nbits_ += 8 * bytes;
    } else {
      while (nbits_ < 56 && pos_ < data_.size()) {
        acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << nbits_;
        nbits_ += 8;
      }
    }
  }

  /// The next @p n bits (n <= 32) without consuming them. Bits past the end
  /// of the input read as zero; consume() is what detects running out.
  [[nodiscard]] std::uint32_t peek(unsigned n) const noexcept {
    return static_cast<std::uint32_t>(acc_ & ((std::uint64_t{1} << n) - 1));
  }

  /// The buffered bits, LSB first, for table lookups; as with peek(), bits
  /// past the end of the input read as zero.
  [[nodiscard]] std::uint64_t window() const noexcept { return acc_; }

  /// Drops @p n buffered bits. Throws std::out_of_range if fewer are buffered.
  void consume(unsigned n) {
    if (n > nbits_) throw_out_of_data();
    acc_ >>= n;
    nbits_ -= n;
  }

  /// Reads @p n bits (n <= 32), LSB first. Throws std::out_of_range at EOF.
  [[nodiscard]] std::uint32_t get_bits(unsigned n) {
    if (nbits_ < n) refill_cold();
    const std::uint32_t v = peek(n);
    consume(n);
    return v;
  }

  /// Reads a single bit.
  [[nodiscard]] std::uint32_t get_bit() { return get_bits(1); }

  /// Discards bits up to the next byte boundary.
  void align_to_byte() noexcept;

  /// Reads a raw byte; the reader must be byte-aligned.
  [[nodiscard]] std::uint8_t get_aligned_byte();

  /// Fills @p out with the next raw bytes; the reader must be byte-aligned.
  /// Throws std::out_of_range if the input holds fewer.
  void get_aligned_bytes(std::span<std::uint8_t> out);

  /// Number of bits consumed so far.
  [[nodiscard]] std::size_t bit_position() const noexcept { return pos_ * 8 - nbits_; }

  /// Input bytes not yet loaded into the accumulator.
  [[nodiscard]] std::size_t bytes_left() const noexcept { return data_.size() - pos_; }

  /// True when no complete bit remains.
  [[nodiscard]] bool exhausted() const noexcept { return nbits_ == 0 && pos_ >= data_.size(); }

 private:
  static std::uint64_t load_le64(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return v;
  }
  void refill_cold() noexcept;  // refill() out of line, so inlined get_bits stays small
  [[noreturn]] static void throw_out_of_data();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;    // next byte index
  std::uint64_t acc_ = 0;  // pending bits, LSB-first
  unsigned nbits_ = 0;     // buffered bits, < 64
};

}  // namespace lzss::bits
