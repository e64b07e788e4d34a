#include "deflate/container.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checksum.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "lzss/mf_encoder.hpp"

namespace lzss::deflate {
namespace {

std::vector<std::uint8_t> encode_tokens(std::span<const core::Token> tokens, BlockKind kind) {
  return kind == BlockKind::kFixed ? deflate_fixed(tokens) : deflate_dynamic(tokens);
}

}  // namespace

std::vector<std::uint8_t> zlib_wrap(std::span<const std::uint8_t> deflate_stream,
                                    std::uint32_t adler, unsigned window_bits) {
  if (window_bits < 8 || window_bits > 15)
    throw std::invalid_argument("zlib_wrap: CINFO window must be 8..15 bits");
  std::vector<std::uint8_t> out;
  out.reserve(deflate_stream.size() + 6);
  // CMF: compression method 8 (deflate), CINFO = log2(window) - 8.
  const std::uint8_t cmf = static_cast<std::uint8_t>(8 | ((window_bits - 8) << 4));
  // FLG: no preset dictionary, level hint 0; FCHECK makes (CMF<<8|FLG) % 31 == 0.
  std::uint8_t flg = 0;
  const unsigned rem = (static_cast<unsigned>(cmf) * 256 + flg) % 31;
  if (rem != 0) flg = static_cast<std::uint8_t>(31 - rem);
  out.push_back(cmf);
  out.push_back(flg);
  out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());
  for (int shift = 24; shift >= 0; shift -= 8)  // Adler-32, big-endian
    out.push_back(static_cast<std::uint8_t>((adler >> shift) & 0xFF));
  return out;
}

std::vector<std::uint8_t> gzip_wrap(std::span<const std::uint8_t> deflate_stream,
                                    std::uint32_t crc, std::uint32_t input_size) {
  std::vector<std::uint8_t> out;
  out.reserve(deflate_stream.size() + 18);
  const std::uint8_t header[10] = {0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255};  // OS = unknown
  // push_back rather than range-insert: GCC 12's -Wstringop-overflow misfires
  // on inserting a fixed array into a fresh vector.
  for (const std::uint8_t b : header) out.push_back(b);
  out.insert(out.end(), deflate_stream.begin(), deflate_stream.end());
  for (int shift = 0; shift <= 24; shift += 8)  // CRC32 then ISIZE, little-endian
    out.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xFF));
  for (int shift = 0; shift <= 24; shift += 8)
    out.push_back(static_cast<std::uint8_t>((input_size >> shift) & 0xFF));
  return out;
}

std::vector<std::uint8_t> zlib_wrap_tokens(std::span<const core::Token> tokens,
                                           std::span<const std::uint8_t> data,
                                           unsigned window_bits, BlockKind kind) {
  return zlib_wrap(encode_tokens(tokens, kind), checksum::adler32(data),
                   std::clamp(window_bits, 8u, 15u));
}

std::vector<std::uint8_t> zlib_compress(std::span<const std::uint8_t> data,
                                        const core::MatchParams& params, BlockKind kind) {
  core::MatchFinderEncoder enc(params);
  const auto tokens = enc.encode(data);
  return zlib_wrap_tokens(tokens, data, params.window_bits, kind);
}

std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> data,
                                        const core::MatchParams& params, BlockKind kind) {
  core::MatchFinderEncoder enc(params);
  const auto tokens = enc.encode(data);
  return gzip_wrap(encode_tokens(tokens, kind), checksum::crc32(data),
                   static_cast<std::uint32_t>(data.size()));
}

}  // namespace lzss::deflate
