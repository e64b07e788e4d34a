// RFC 1951 code tables: length/distance symbol mapping and the fixed
// Huffman code ("fixed-table Huffman encoding" in the paper).
//
// The hardware attaches a fixed-table pipelined Huffman encoder to the LZSS
// output; because the table is fixed no clock cycles are spent building it.
// Everything here is constexpr-initialized for the same reason.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

namespace lzss::deflate {

inline constexpr unsigned kNumLitLenSymbols = 288;  // 0..287 (286/287 reserved)
inline constexpr unsigned kNumDistSymbols = 30;     // 0..29
inline constexpr unsigned kEndOfBlock = 256;
inline constexpr unsigned kFirstLengthCode = 257;
inline constexpr unsigned kMaxCodeLength = 15;

/// Length code: symbol 257..285, plus extra bits appended after the code.
struct LengthCode {
  std::uint16_t symbol;
  std::uint8_t extra_bits;
  std::uint16_t extra_value;
};

/// Distance code: symbol 0..29, plus extra bits.
struct DistanceCode {
  std::uint8_t symbol;
  std::uint8_t extra_bits;
  std::uint16_t extra_value;
};

// RFC 1951 section 3.2.5 tables. They live in the header so that inflate's
// symbol loop indexes them directly.
inline constexpr std::array<std::uint16_t, 29> kLengthBase{
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr std::array<std::uint8_t, 29> kLengthExtra{
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
inline constexpr std::array<std::uint16_t, 30> kDistBase{
    1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
    33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
inline constexpr std::array<std::uint8_t, 30> kDistExtra{
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// Base length for length symbol 257+i and its extra-bit count.
[[nodiscard]] inline std::uint32_t length_base(unsigned symbol) noexcept {
  assert(symbol >= kFirstLengthCode && symbol <= 285);
  return kLengthBase[symbol - kFirstLengthCode];
}
[[nodiscard]] inline unsigned length_extra_bits(unsigned symbol) noexcept {
  assert(symbol >= kFirstLengthCode && symbol <= 285);
  return kLengthExtra[symbol - kFirstLengthCode];
}

/// Base distance for distance symbol i and its extra-bit count.
[[nodiscard]] inline std::uint32_t distance_base(unsigned symbol) noexcept {
  assert(symbol < 30);
  return kDistBase[symbol];
}
[[nodiscard]] inline unsigned distance_extra_bits(unsigned symbol) noexcept {
  assert(symbol < 30);
  return kDistExtra[symbol];
}

namespace detail {

// zlib's _length_code and _dist_code (trees.c): the length code of every
// match length, indexed by length - 3, and the distance symbol of distances
// 1..256 at d - 1 and of 257..32768 at 256 + ((d - 1) >> 7). Above 256 a
// distance band's base is 1 more than a multiple of 128, so every distance
// sharing (d - 1) >> 7 shares its symbol.
inline constexpr std::array<LengthCode, 256> kLengthCodes = [] {
  std::array<LengthCode, 256> t{};
  for (std::uint32_t len = 3; len <= 258; ++len) {
    unsigned i = 0;
    while (i + 1 < kLengthBase.size() && kLengthBase[i + 1] <= len) ++i;
    t[len - 3] = {static_cast<std::uint16_t>(kFirstLengthCode + i), kLengthExtra[i],
                  static_cast<std::uint16_t>(len - kLengthBase[i])};
  }
  return t;
}();

inline constexpr std::array<std::uint8_t, 512> kDistSymbols = [] {
  std::array<std::uint8_t, 512> t{};
  for (std::uint32_t i = 0; i < t.size(); ++i) {
    const std::uint32_t d = i < 256 ? i + 1 : ((i - 256) << 7) + 1;
    while (t[i] + 1u < kDistBase.size() && kDistBase[t[i] + 1] <= d) ++t[i];
  }
  return t;
}();

}  // namespace detail

/// Maps a match length (3..258) to its RFC 1951 code.
[[nodiscard]] inline LengthCode length_code(std::uint32_t length) noexcept {
  assert(length >= 3 && length <= 258);
  return detail::kLengthCodes[(length - 3) & 255];
}

/// Maps a distance (1..32768) to its RFC 1951 code.
[[nodiscard]] inline DistanceCode distance_code(std::uint32_t distance) noexcept {
  assert(distance >= 1 && distance <= 32768);
  // Arithmetic rather than a branch, which mispredicts on a mix of near and
  // far matches; the mask keeps an out-of-contract distance in the table.
  const std::uint32_t x = distance - 1;
  const std::uint32_t far = x >= 256 ? 1 : 0;
  const std::uint8_t sym = detail::kDistSymbols[((x >> (7 * far)) + (far << 8)) & 511];
  return DistanceCode{sym, kDistExtra[sym],
                      static_cast<std::uint16_t>(distance - kDistBase[sym])};
}

/// A canonical Huffman code assignment: per-symbol code value and bit length.
struct CanonicalCode {
  std::array<std::uint16_t, kNumLitLenSymbols> code{};
  /// `code` bit-reversed into stream order, as the block writers put it.
  std::array<std::uint16_t, kNumLitLenSymbols> reversed{};
  std::array<std::uint8_t, kNumLitLenSymbols> bits{};
};

/// The canonical code (RFC 1951 section 3.2.2) for per-symbol code
/// @p lengths, 0 = symbol absent, in one pass: each symbol's code, its
/// stream-order reversal and its length. The one canonical-code routine,
/// shared by the block writers and HuffmanDecoder. Throws
/// std::invalid_argument on more than kNumLitLenSymbols lengths or a length
/// over kMaxCodeLength.
[[nodiscard]] CanonicalCode canonical_code(std::span<const std::uint8_t> lengths);

/// The fixed literal/length code of RFC 1951 section 3.2.6.
[[nodiscard]] const CanonicalCode& fixed_litlen_code() noexcept;
/// The fixed distance code (5 bits for every symbol).
[[nodiscard]] const CanonicalCode& fixed_distance_code() noexcept;

}  // namespace lzss::deflate
