#include "deflate/encoder.hpp"

#include <string>

namespace lzss::deflate {

DistanceCode checked_distance_code(std::uint32_t distance) {
  if (distance > kMaxDistance)
    throw EncodeError("deflate: match distance " + std::to_string(distance) +
                      " exceeds the 32 KiB window");
  return distance_code(distance);
}

namespace {

/// Throws EncodeError for a distance Deflate cannot carry, before a block
/// writes any bit.
void check_distances(std::span<const core::Token> tokens) {
  for (const core::Token& t : tokens)
    if (t.distance() > kMaxDistance) [[unlikely]]
      (void)checked_distance_code(t.distance());
}

}  // namespace

void write_tokens(bits::BitWriter& w, std::span<const core::Token> tokens,
                  const CanonicalCode& litlen, const CanonicalCode& dist) {
  // The span is captured by value so that its pointer stays in a register.
  const auto field = [tokens, &litlen, &dist](std::size_t i) -> bits::BitWriter::Field {
    const core::Token t = tokens[i];
    if (t.is_literal()) {
      const unsigned s = t.literal_byte();
      return {litlen.reversed[s], litlen.bits[s]};
    }
    const LengthCode lc = length_code(t.length());
    const DistanceCode dc = distance_code(t.distance());
    std::uint64_t v = litlen.reversed[lc.symbol];
    unsigned n = litlen.bits[lc.symbol];
    v |= std::uint64_t{lc.extra_value} << n;
    n += lc.extra_bits;
    v |= std::uint64_t{dist.reversed[dc.symbol]} << n;
    n += dist.bits[dc.symbol];
    v |= std::uint64_t{dc.extra_value} << n;
    n += dc.extra_bits;
    return {v, n};
  };
  w.pack(tokens.size(), kMaxTokenBits, field);
  w.put_bits(litlen.reversed[kEndOfBlock], litlen.bits[kEndOfBlock]);
}

void write_fixed_block(bits::BitWriter& w, std::span<const core::Token> tokens,
                       bool final_block) {
  check_distances(tokens);
  w.put_bits(final_block ? 1 : 0, 1);  // BFINAL
  w.put_bits(0b01, 2);                 // BTYPE = fixed Huffman
  write_tokens(w, tokens, fixed_litlen_code(), fixed_distance_code());
}

void write_stored_block(bits::BitWriter& w, std::span<const std::uint8_t> bytes,
                        bool final_block) {
  if (bytes.size() > 0xFFFF) throw std::invalid_argument("stored block exceeds 65535 bytes");
  w.put_bits(final_block ? 1 : 0, 1);
  w.put_bits(0b00, 2);
  w.align_to_byte();
  const auto len = static_cast<std::uint16_t>(bytes.size());
  w.put_aligned_byte(static_cast<std::uint8_t>(len & 0xFF));
  w.put_aligned_byte(static_cast<std::uint8_t>(len >> 8));
  w.put_aligned_byte(static_cast<std::uint8_t>(~len & 0xFF));
  w.put_aligned_byte(static_cast<std::uint8_t>((~len >> 8) & 0xFF));
  w.put_aligned_bytes(bytes);
}

unsigned fixed_token_bits(const core::Token& t) {
  const CanonicalCode& lit = fixed_litlen_code();
  const CanonicalCode& dist = fixed_distance_code();
  if (t.is_literal()) return lit.bits[t.literal_byte()];
  const LengthCode lc = length_code(t.length());
  const DistanceCode dc = distance_code(t.distance());
  return lit.bits[lc.symbol] + lc.extra_bits + dist.bits[dc.symbol] + dc.extra_bits;
}

std::uint64_t fixed_block_bits(std::span<const core::Token> tokens) {
  const CanonicalCode& lit = fixed_litlen_code();
  std::uint64_t bits = 3 + lit.bits[kEndOfBlock];  // header + EOB
  for (const core::Token& t : tokens) bits += fixed_token_bits(t);
  return bits;
}

std::vector<std::uint8_t> deflate_fixed(std::span<const core::Token> tokens) {
  bits::BitWriter w;
  write_fixed_block(w, tokens, /*final_block=*/true);
  return w.take();
}

}  // namespace lzss::deflate
