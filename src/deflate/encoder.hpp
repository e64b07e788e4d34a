// Deflate block writers: LZSS tokens -> RFC 1951 bitstream.
//
// The hardware uses a single fixed-Huffman block per stream (building a
// dynamic table would cost cycles and memories); `write_fixed_block` is that
// path. The dynamic-block writer lives in dynamic_encoder.hpp. Both emit
// their payload through write_tokens(): table symbol lookups, codes stored
// bit-reversed, and one word-wise put per token.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bitio.hpp"
#include "deflate/fixed_tables.hpp"
#include "lzss/token.hpp"

namespace lzss::deflate {

/// Deflate's largest match distance (RFC 1951 section 3.2.5).
inline constexpr std::uint32_t kMaxDistance = 32768;

/// Thrown by the block writers for a match Deflate cannot carry: a distance
/// beyond kMaxDistance would be written with its extra bits masked off and
/// decode to the wrong bytes, so no stream is produced at all.
class EncodeError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// distance_code() for @p distance, or EncodeError when it exceeds
/// kMaxDistance.
[[nodiscard]] DistanceCode checked_distance_code(std::uint32_t distance);

/// Most bits one match takes: a 15-bit length code, 5 extra bits, a 15-bit
/// distance code and 13 extra bits.
inline constexpr unsigned kMaxTokenBits = 48;

/// Appends @p tokens and the end-of-block symbol under the @p litlen and
/// @p dist codes: the payload of a fixed or a dynamic block. Every distance
/// must be at most kMaxDistance; the block writers check that first.
void write_tokens(bits::BitWriter& w, std::span<const core::Token> tokens,
                  const CanonicalCode& litlen, const CanonicalCode& dist);

/// Appends one fixed-Huffman block (BTYPE=01) containing @p tokens plus the
/// end-of-block symbol. Throws EncodeError on a distance beyond kMaxDistance.
void write_fixed_block(bits::BitWriter& w, std::span<const core::Token> tokens, bool final_block);

/// Appends one stored block (BTYPE=00). @p bytes must be <= 65535 long.
void write_stored_block(bits::BitWriter& w, std::span<const std::uint8_t> bytes,
                        bool final_block);

/// Exact size in bits of the fixed-Huffman encoding of @p tokens (block
/// header + payload + end-of-block), without materializing the stream. This
/// is what the estimator uses to turn token statistics into output size.
[[nodiscard]] std::uint64_t fixed_block_bits(std::span<const core::Token> tokens);

/// Size in bits of one token under the fixed code (no header/EOB).
[[nodiscard]] unsigned fixed_token_bits(const core::Token& token);

/// Complete raw Deflate stream: a single final fixed-Huffman block.
[[nodiscard]] std::vector<std::uint8_t> deflate_fixed(std::span<const core::Token> tokens);

}  // namespace lzss::deflate
