#include "common/checksum.hpp"

#include <array>

namespace lzss::checksum {
namespace {

constexpr std::uint32_t kAdlerMod = 65521;  // largest prime < 2^16
// Max bytes processable before s2 can overflow a uint32 (zlib's NMAX).
constexpr std::size_t kAdlerNmax = 5552;

// Slicing-by-8 tables: kCrcTables[0] is the bytewise table; kCrcTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups fold
// eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

}  // namespace

void Adler32::update(std::span<const std::uint8_t> data) noexcept {
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t chunk = std::min(data.size() - i, kAdlerNmax);
    for (std::size_t j = 0; j < chunk; ++j) {
      s1_ += data[i + j];
      s2_ += s1_;
    }
    s1_ %= kAdlerMod;
    s2_ %= kAdlerMod;
    i += chunk;
  }
}

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = crc_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  crc_ = c;
}

std::uint32_t adler32(std::span<const std::uint8_t> data) noexcept {
  Adler32 a;
  a.update(data);
  return a.value();
}

std::uint32_t adler32_combine(std::uint32_t adler_a, std::uint32_t adler_b,
                              std::uint64_t len_b) noexcept {
  // With s1/s2 the low/high halves: B's bytes each add A's s1 - 1 once more
  // to s2, so s2 = s2_a + s2_b + len_b * (s1_a - 1), and s1 = s1_a + s1_b - 1.
  const std::uint64_t rem = len_b % kAdlerMod;
  const std::uint64_t s1_a = adler_a & 0xFFFFu;
  const std::uint64_t s1 = (s1_a + (adler_b & 0xFFFFu) + kAdlerMod - 1) % kAdlerMod;
  const std::uint64_t s2 =
      (rem * s1_a + (adler_a >> 16) + (adler_b >> 16) + kAdlerMod - rem) % kAdlerMod;
  return static_cast<std::uint32_t>((s2 << 16) | s1);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace lzss::checksum
