#include "deflate/fixed_tables.hpp"

#include <stdexcept>

#include "common/bitio.hpp"

namespace lzss::deflate {

CanonicalCode canonical_code(std::span<const std::uint8_t> lengths) {
  if (lengths.size() > kNumLitLenSymbols)
    throw std::invalid_argument("canonical_code: more than 288 symbols");
  std::array<std::uint32_t, kMaxCodeLength + 1> bl_count{};
  for (const auto l : lengths) {
    if (l > kMaxCodeLength) throw std::invalid_argument("canonical_code: length > 15");
    bl_count[l]++;
  }
  bl_count[0] = 0;

  std::array<std::uint32_t, kMaxCodeLength + 1> next_code{};
  for (unsigned len = 1; len <= kMaxCodeLength; ++len)
    next_code[len] = (next_code[len - 1] + bl_count[len - 1]) << 1;

  CanonicalCode out;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    const std::uint32_t code = next_code[len]++;
    out.code[s] = static_cast<std::uint16_t>(code);
    out.reversed[s] = static_cast<std::uint16_t>(bits::reverse_bits(code, len));
    out.bits[s] = static_cast<std::uint8_t>(len);
  }
  return out;
}

namespace {

CanonicalCode make_fixed_litlen() {
  std::array<std::uint8_t, kNumLitLenSymbols> lengths{};
  for (unsigned s = 0; s <= 143; ++s) lengths[s] = 8;
  for (unsigned s = 144; s <= 255; ++s) lengths[s] = 9;
  for (unsigned s = 256; s <= 279; ++s) lengths[s] = 7;
  for (unsigned s = 280; s <= 287; ++s) lengths[s] = 8;
  return canonical_code(lengths);
}

CanonicalCode make_fixed_distance() {
  std::array<std::uint8_t, 32> lengths{};
  lengths.fill(5);  // 30/31 never emitted
  return canonical_code(lengths);
}

}  // namespace

const CanonicalCode& fixed_litlen_code() noexcept {
  static const CanonicalCode c = make_fixed_litlen();
  return c;
}

const CanonicalCode& fixed_distance_code() noexcept {
  static const CanonicalCode c = make_fixed_distance();
  return c;
}

}  // namespace lzss::deflate
