#include "deflate/fixed_tables.hpp"

#include <algorithm>
#include <cassert>

#include "deflate/huffman.hpp"

namespace lzss::deflate {

CanonicalCode canonical_code(std::span<const std::uint8_t> lengths) {
  assert(lengths.size() <= kNumLitLenSymbols);
  const std::vector<std::uint16_t> code = canonical_codes(lengths);
  const std::vector<std::uint16_t> reversed = stream_order_codes(lengths);
  CanonicalCode out;
  std::copy(code.begin(), code.end(), out.code.begin());
  std::copy(reversed.begin(), reversed.end(), out.reversed.begin());
  std::copy(lengths.begin(), lengths.end(), out.bits.begin());
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
