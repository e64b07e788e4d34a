// Huffman code-length construction for the dynamic block writer, and the
// canonical Huffman table decoder inflate uses. Both take their canonical
// codes from canonical_code() (deflate/fixed_tables.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitio.hpp"

namespace lzss::deflate {

/// The largest alphabet huffman_code_lengths() takes: a symbol fits in
/// 9 bits of a 64-bit sort key...
inline constexpr std::size_t kMaxHuffmanSymbols = 512;
/// ...and a frequency in the other 55 bits. 512 of them sum below 2^64.
inline constexpr std::uint64_t kMaxHuffmanFreq = (std::uint64_t{1} << 55) - 1;

/// Computes length-limited Huffman code lengths for the given symbol
/// frequencies into @p lengths, one per frequency. Zero-frequency symbols
/// get length 0, and a lone used symbol gets length 1.
///
/// The tree is built in linear time. The used symbols are sorted by
/// (freq, symbol) with a stable radix sort over the frequency bytes, then
/// merged two at a time from two queues: the sorted leaves and a FIFO of
/// merged nodes, whose weights come out in ascending order. A leaf wins a
/// tie against a merged node, and among equals the earlier one goes first.
/// That is the pop order of a (freq, node index) min-heap whose leaves are
/// numbered by symbol ahead of every merged node, so the lengths are the
/// heap build's. One reverse pass over the parent links gives every depth.
/// A depth past @p max_bits is clamped and then repaired zlib-style: the
/// rarest symbols are lengthened until the Kraft sum fits, and the most
/// frequent shortened into any slack.
///
/// Throws std::invalid_argument when @p freqs has more than
/// kMaxHuffmanSymbols entries, a frequency is above kMaxHuffmanFreq, or
/// @p lengths differs from @p freqs in size; std::logic_error when more
/// than 2^max_bits symbols are used.
void huffman_code_lengths(std::span<const std::uint64_t> freqs, unsigned max_bits,
                          std::span<std::uint8_t> lengths);

/// huffman_code_lengths() into a new vector.
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
  /// @param lengths per-symbol code lengths; 0 = absent. Throws
  /// std::invalid_argument on an over-subscribed code, a length over 15 or
  /// more than 288 symbols; incomplete codes are accepted (RFC allows the
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
