// Adler-32 (RFC 1950) and CRC-32 (RFC 1952 / IEEE 802.3) checksums.
//
// Both support incremental updates so streaming compressors can fold data in
// as it flows through the pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace lzss::checksum {

/// Incremental Adler-32 as used by the zlib (RFC 1950) container.
class Adler32 {
 public:
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] std::uint32_t value() const noexcept { return (s2_ << 16) | s1_; }
  void reset() noexcept {
    s1_ = 1;
    s2_ = 0;
  }

 private:
  std::uint32_t s1_ = 1;
  std::uint32_t s2_ = 0;
};

/// Incremental CRC-32 (reflected, polynomial 0xEDB88320) as used by gzip.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] std::uint32_t value() const noexcept { return ~crc_; }
  void reset() noexcept { crc_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// One-shot helpers.
[[nodiscard]] std::uint32_t adler32(std::span<const std::uint8_t> data) noexcept;
/// The Adler-32 of A followed by B, from @p adler_a = adler32(A),
/// @p adler_b = adler32(B) and @p len_b = B's length (zlib's
/// adler32_combine), so slices can be checksummed apart and in parallel.
[[nodiscard]] std::uint32_t adler32_combine(std::uint32_t adler_a, std::uint32_t adler_b,
                                            std::uint64_t len_b) noexcept;
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

}  // namespace lzss::checksum
