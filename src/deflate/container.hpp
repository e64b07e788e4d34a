// zlib (RFC 1950) and gzip (RFC 1952) containers around a raw Deflate
// stream, plus one-call compression helpers tying the LZSS encoders to the
// block writers. The zlib container is what makes the compressor's output
// "compatible with the ZLib library" as the paper requires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lzss/params.hpp"
#include "lzss/token.hpp"

namespace lzss::deflate {

/// Wraps @p deflate_stream in a zlib container. @p window_bits sets the
/// CINFO field (8..15; zlib requires the declared window to cover the
/// largest distance used).
[[nodiscard]] std::vector<std::uint8_t> zlib_wrap(std::span<const std::uint8_t> deflate_stream,
                                                  std::uint32_t adler, unsigned window_bits);

/// The zlib container's header and trailer (Adler-32) sizes.
inline constexpr std::size_t kZlibHeaderBytes = 2;
inline constexpr std::size_t kZlibTrailerBytes = 4;

/// zlib_wrap without the copy: @p framed holds kZlibHeaderBytes reserved
/// bytes, then the raw Deflate stream. Fills the header in place, appends
/// the trailer and returns the buffer. A distinct name, not an overload: a
/// vector taken by value would also capture every zlib_wrap(vector, ...)
/// call.
[[nodiscard]] std::vector<std::uint8_t> zlib_wrap_in_place(std::vector<std::uint8_t> framed,
                                                           std::uint32_t adler,
                                                           unsigned window_bits);

/// Wraps @p deflate_stream in a gzip container.
[[nodiscard]] std::vector<std::uint8_t> gzip_wrap(std::span<const std::uint8_t> deflate_stream,
                                                  std::uint32_t crc, std::uint32_t input_size);

enum class BlockKind : std::uint8_t { kFixed, kDynamic };

/// Compresses @p data with the software LZSS encoder and wraps the result in
/// a zlib container (single final block).
[[nodiscard]] std::vector<std::uint8_t> zlib_compress(std::span<const std::uint8_t> data,
                                                      const core::MatchParams& params,
                                                      BlockKind kind = BlockKind::kFixed);

/// Builds the zlib container around an already-produced token stream (e.g.
/// from the hardware model). @p data is the original input (for Adler-32).
[[nodiscard]] std::vector<std::uint8_t> zlib_wrap_tokens(std::span<const core::Token> tokens,
                                                         std::span<const std::uint8_t> data,
                                                         unsigned window_bits,
                                                         BlockKind kind = BlockKind::kFixed);

/// Compresses @p data into a gzip file image.
[[nodiscard]] std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> data,
                                                      const core::MatchParams& params,
                                                      BlockKind kind = BlockKind::kFixed);

}  // namespace lzss::deflate
