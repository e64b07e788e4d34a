// Canonical Huffman utilities shared by the block writers and the inflate
// decoder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitio.hpp"

namespace lzss::deflate {

/// Computes canonical code values for the given code lengths (RFC 1951
/// section 3.2.2). lengths[i] == 0 means "symbol absent".
[[nodiscard]] std::vector<std::uint16_t> canonical_codes(std::span<const std::uint8_t> lengths);

/// canonical_codes() bit-reversed into stream order. Deflate sends a
/// Huffman code MSB first into an LSB-first stream, so the block writers put
/// these values with put_bits and the table decoder indexes by them.
[[nodiscard]] std::vector<std::uint16_t> stream_order_codes(std::span<const std::uint8_t> lengths);

/// Computes length-limited Huffman code lengths for the given symbol
/// frequencies. Zero-frequency symbols get length 0. Uses a standard Huffman
/// build followed by zlib-style depth-overflow correction so no code exceeds
/// @p max_bits.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freqs,
                                                             unsigned max_bits);

/// Canonical Huffman decoder over an LSB-first Deflate bitstream.
///
/// Table-driven, in the style of zlib's inflate_table: a root table indexed
/// by the next (up to 10) input bits resolves every code of up to that
/// length in one lookup; a longer code's root entry links to a sub-table
/// indexed by the bits that follow. One lookup or two per symbol, whatever
/// the code length. As in libdeflate, an entry also counts the extra bits
/// that follow its symbol's code, so one shift consumes both.
class HuffmanDecoder {
 public:
  /// @param lengths per-symbol code lengths; 0 = absent. Throws on an
  /// over-subscribed code; incomplete codes are accepted (RFC allows the
  /// single-symbol distance code case) and their unused codes throw when
  /// met in a stream.
  /// @param extra_bits per-symbol count of the extra bits that follow the
  /// symbol's code (RFC 1951 length and distance codes); symbols past its
  /// end have none.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths,
                          std::span<const std::uint8_t> extra_bits = {});

  /// A decoded symbol and the extra bits consumed with it.
  class Symbol {
   public:
    [[nodiscard]] unsigned value() const noexcept { return entry_ >> 16; }
    /// The value of the extra bits; 0 for a symbol without any.
    [[nodiscard]] std::uint32_t extra() const noexcept {
      const unsigned code_len = (entry_ >> 8) & 0xF;
      const unsigned extra_len = (entry_ & kLenMask) - code_len;
      return static_cast<std::uint32_t>(window_ >> code_len) & ((1u << extra_len) - 1);
    }

   private:
    friend class HuffmanDecoder;
    Symbol(std::uint32_t entry, std::uint64_t window) noexcept : entry_(entry), window_(window) {}
    std::uint32_t entry_;   // the table entry
    std::uint64_t window_;  // the reader's bits before the code
  };

  /// Decodes one symbol, and its extra bits, from the bits @p r has
  /// buffered. The caller refills @p r first: a refilled reader holds at
  /// least 56 bits unless the input ends. Throws std::out_of_range when the
  /// bits run past the end of the input, std::runtime_error on a code the
  /// table does not hold.
  [[nodiscard]] Symbol decode(bits::BitReader& r) const {
    const std::uint64_t window = r.window();
    std::uint32_t e = table_[window & root_mask_];
    if ((e & (kLink | kInvalid)) != 0) [[unlikely]] {
      if ((e & kLink) != 0) e = table_[(e >> 16) + (r.peek(e & kLenMask) >> root_bits_)];
      if ((e & kInvalid) != 0) throw_bad_code();
    }
    r.consume(e & kLenMask);
    return {e, window};
  }

  [[nodiscard]] bool empty() const noexcept { return total_symbols_ == 0; }

 private:
  [[noreturn]] static void throw_bad_code();

  static constexpr unsigned kMaxBits = 15;
  static constexpr unsigned kMaxRootBits = 10;
  // An entry is: symbol (or a link's sub-table offset) << 16 | flags | the
  // code length << 8 | the bits to consume, code plus extra bits (a link's:
  // root plus sub-table index bits).
  static constexpr std::uint32_t kLenMask = 0xFF;
  static constexpr std::uint32_t kLink = 0x1000;
  static constexpr std::uint32_t kInvalid = 0x2000;

  std::vector<std::uint32_t> table_;  // root table, then the sub-tables
  unsigned root_bits_ = 0;
  std::uint32_t root_mask_ = 0;
  std::uint32_t total_symbols_ = 0;
};

}  // namespace lzss::deflate
