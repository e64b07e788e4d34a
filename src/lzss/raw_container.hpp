// Raw LZSS container — the paper's section III on-wire format with a small
// framing header.
//
// When zlib compatibility is not needed (e.g. logger-internal storage), the
// raw D/L command stream is simpler and faster to decode in hardware: every
// command is log2(window)+8 bits, no Huffman stage. Layout:
//
//   magic   "LZS1"                     4 bytes
//   window  log2(window size)          1 byte
//   size    original length, LE        8 bytes
//   tokens  token count, LE            8 bytes
//   payload packed D/L commands (lzss::core::pack_raw_tokens)
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "lzss/decoder.hpp"
#include "lzss/token.hpp"

namespace lzss::core {

/// Serializes a token stream into the raw container.
[[nodiscard]] std::vector<std::uint8_t> raw_container_pack(std::span<const Token> tokens,
                                                           unsigned window_bits,
                                                           std::uint64_t original_size);

/// A container whose declared original_size passes the caller's cap. A
/// DecodeError, so existing catch sites keep working; callers that want to
/// tell "too big" from "corrupt" catch this first.
class RawTooLargeError : public DecodeError {
 public:
  using DecodeError::DecodeError;
};

/// Parses and fully decodes a raw container back to the original bytes.
/// An original_size beyond @p max_output throws RawTooLargeError before any
/// token is decoded; the decode stops at the first token that passes
/// original_size. Throws DecodeError on malformed framing or payload.
[[nodiscard]] std::vector<std::uint8_t> raw_container_unpack(
    std::span<const std::uint8_t> container,
    std::size_t max_output = std::numeric_limits<std::size_t>::max());

/// Parses only the header; returns {window_bits, original_size, token_count}.
struct RawHeader {
  unsigned window_bits = 0;
  std::uint64_t original_size = 0;
  std::uint64_t token_count = 0;
};
[[nodiscard]] RawHeader raw_container_header(std::span<const std::uint8_t> container);

}  // namespace lzss::core
