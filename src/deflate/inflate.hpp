// Full Inflate decompressor (RFC 1951) with zlib (RFC 1950) and gzip
// (RFC 1952) container parsing.
//
// This is the in-tree verifier: the paper claims its output is
// ZLib-compatible, so every compressed stream the library produces —
// software or hardware path, fixed or dynamic blocks — must round-trip
// through it with matching checksums. The independent oracle is CPython's
// zlib, run against lzsszip by tests/cli/zlib_referee.py.
//
// Symbols decode from tables (HuffmanDecoder). While a whole match fits
// under the cap, literals and matches are written with no per-byte check
// and matches copy in 8-byte chunks; near the cap every write is checked.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace lzss::deflate {

class InflateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when the decompressed output would exceed the caller's cap or the
/// structural expansion bound — the compression-bomb guard. Subclass of
/// InflateError so existing catch sites keep working; callers that want to
/// distinguish "too big" from "corrupt" catch this first.
class InflateBombError : public InflateError {
 public:
  using InflateError::InflateError;
};

/// Upper bound on legitimate Deflate expansion: a match costs at least ~10
/// bits and produces at most 258 bytes, so anything past ~1040x per input
/// byte (plus slack for tiny inputs) is structurally impossible and treated
/// as a bomb. This bound is enforced even when no explicit cap is given, so
/// a hostile stream can never force allocation past input_size * ~1KB.
[[nodiscard]] constexpr std::size_t max_inflate_expansion(std::size_t input_bytes) noexcept {
  return 64 * 1024 + input_bytes * 1040;
}

inline constexpr std::size_t kNoOutputCap = static_cast<std::size_t>(-1);

/// Decompresses a raw Deflate stream (stored, fixed and dynamic blocks).
/// @param max_output hard cap on the output size; output growing past
///        min(max_output, max_inflate_expansion(stream.size())) throws
///        InflateBombError before the memory is committed. The result
///        grows with the output; it is never pre-sized to the cap.
[[nodiscard]] std::vector<std::uint8_t> inflate_raw(std::span<const std::uint8_t> stream,
                                                    std::size_t max_output = kNoOutputCap);

/// Decompresses a raw Deflate stream into @p out, which the caller sized
/// from a length its container declares. Returns the bytes written; a
/// stream that wants more than out.size() (or max_inflate_expansion)
/// throws InflateBombError.
[[nodiscard]] std::size_t inflate_into(std::span<const std::uint8_t> stream,
                                       std::span<std::uint8_t> out);

/// Parses a zlib container, inflates, verifies the Adler-32 checksum.
/// @param adler if not null, receives the verified trailer checksum.
[[nodiscard]] std::vector<std::uint8_t> zlib_decompress(std::span<const std::uint8_t> stream,
                                                        std::size_t max_output = kNoOutputCap,
                                                        std::uint32_t* adler = nullptr);

/// zlib_decompress into a buffer sized from a declared length, as
/// inflate_into. Returns the bytes written.
[[nodiscard]] std::size_t zlib_decompress_into(std::span<const std::uint8_t> stream,
                                               std::span<std::uint8_t> out);

/// Parses a gzip container, inflates, verifies CRC-32 and ISIZE.
[[nodiscard]] std::vector<std::uint8_t> gzip_decompress(std::span<const std::uint8_t> stream,
                                                        std::size_t max_output = kNoOutputCap);

}  // namespace lzss::deflate
