// Reference LZSS decompressor: token stream -> original bytes.
//
// Used as the correctness oracle for both the software and the hardware
// compressor ("we have verified the quality of our design by ... comparing
// the results to [a] software reference model"). Strict: a malformed token
// stream (distance beyond the produced prefix, bad lengths) throws instead of
// producing garbage.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "lzss/token.hpp"

namespace lzss::core {

/// Thrown on a malformed token stream.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decodes @p tokens. @p window_size (0 = unlimited) additionally enforces
/// that no distance exceeds the dictionary the encoder claimed to use;
/// @p max_output bounds the output, and the first token that would pass it
/// throws before its bytes are written.
[[nodiscard]] std::vector<std::uint8_t> decode_tokens(
    std::span<const Token> tokens, std::uint32_t window_size = 0,
    std::size_t max_output = std::numeric_limits<std::size_t>::max());

/// Convenience: true iff @p tokens decodes exactly to @p expected.
[[nodiscard]] bool tokens_reproduce(std::span<const Token> tokens,
                                    std::span<const std::uint8_t> expected,
                                    std::uint32_t window_size = 0);

}  // namespace lzss::core
