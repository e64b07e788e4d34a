#include "lzss/decoder.hpp"

#include <algorithm>

namespace lzss::core {

std::vector<std::uint8_t> decode_tokens(std::span<const Token> tokens,
                                        std::uint32_t window_size, std::size_t max_output) {
  std::vector<std::uint8_t> out;
  for (const Token& t : tokens) {
    if ((t.is_literal() ? 1u : t.length()) > max_output - out.size())
      throw DecodeError("decode_tokens: output exceeds the declared size");
    if (t.is_literal()) {
      out.push_back(t.literal_byte());
      continue;
    }
    if (t.length() < kMinMatch || t.length() > kMaxMatch)
      throw DecodeError("decode_tokens: match length out of range");
    if (t.distance() == 0 || t.distance() > out.size())
      throw DecodeError("decode_tokens: distance exceeds produced data");
    if (window_size != 0 && t.distance() >= window_size)
      throw DecodeError("decode_tokens: distance exceeds the declared window");
    // Byte-by-byte copy: overlapping matches (distance < length) replicate
    // the most recent bytes, exactly like the hardware copy loop.
    std::size_t src = out.size() - t.distance();
    for (std::uint32_t i = 0; i < t.length(); ++i) out.push_back(out[src + i]);
  }
  return out;
}

bool tokens_reproduce(std::span<const Token> tokens, std::span<const std::uint8_t> expected,
                      std::uint32_t window_size) {
  const auto decoded = decode_tokens(tokens, window_size);
  return decoded.size() == expected.size() &&
         std::equal(decoded.begin(), decoded.end(), expected.begin());
}

}  // namespace lzss::core
