#include "deflate/dynamic_encoder.hpp"

#include <algorithm>
#include <array>

#include "deflate/encoder.hpp"
#include "deflate/fixed_tables.hpp"
#include "deflate/huffman.hpp"

namespace lzss::deflate {
namespace {

// Order in which code-length-code lengths are transmitted (RFC 1951).
constexpr std::array<std::uint8_t, 19> kClcOrder{16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                 11, 4,  12, 3, 13, 2, 14, 1, 15};

struct ClcSymbol {
  std::uint8_t symbol;      // 0..18
  std::uint8_t extra_bits;  // for 16/17/18
  std::uint8_t extra_value;
};

// The most code lengths a header sends, and so the most CLC symbols: each
// symbol covers at least one length.
constexpr std::size_t kMaxLengths = kNumLitLenSymbols + kNumDistSymbols;

/// Run-length encodes a code-length sequence into CLC symbols (16 = repeat
/// previous 3-6, 17 = zeros 3-10, 18 = zeros 11-138); returns their count.
std::size_t rle_code_lengths(std::span<const std::uint8_t> lengths,
                             std::array<ClcSymbol, kMaxLengths>& out) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t len = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == len) ++run;

    if (len == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t n = std::min<std::size_t>(left, 138);
        out[count++] = {18, 7, static_cast<std::uint8_t>(n - 11)};
        left -= n;
      }
      if (left >= 3) {
        out[count++] = {17, 3, static_cast<std::uint8_t>(left - 3)};
        left = 0;
      }
      while (left-- > 0) out[count++] = {0, 0, 0};
    } else {
      out[count++] = {len, 0, 0};
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t n = std::min<std::size_t>(left, 6);
        out[count++] = {16, 2, static_cast<std::uint8_t>(n - 3)};
        left -= n;
      }
      while (left-- > 0) out[count++] = {len, 0, 0};
    }
    i += run;
  }
  return count;
}

}  // namespace

void write_dynamic_block(bits::BitWriter& w, std::span<const core::Token> tokens,
                         bool final_block) {
  // 1. Symbol frequencies. The distance check throws before any bit is
  // written.
  std::array<std::uint64_t, kNumLitLenSymbols> lit_freq{};
  std::array<std::uint64_t, kNumDistSymbols> dist_freq{};
  for (const core::Token& t : tokens) {
    if (t.is_literal()) {
      lit_freq[t.literal_byte()]++;
    } else {
      lit_freq[length_code(t.length()).symbol]++;
      dist_freq[checked_distance_code(t.distance()).symbol]++;
    }
  }
  lit_freq[kEndOfBlock] = 1;

  // 2. Code lengths (15-bit limit), then canonical codes.
  std::array<std::uint8_t, kNumLitLenSymbols> lit_len{};
  std::array<std::uint8_t, kNumDistSymbols> dist_len{};
  huffman_code_lengths(lit_freq, kMaxCodeLength, lit_len);
  huffman_code_lengths(dist_freq, kMaxCodeLength, dist_len);
  // A decodable block needs at least one distance code even if unused.
  if (std::all_of(dist_len.begin(), dist_len.end(), [](auto l) { return l == 0; }))
    dist_len[0] = 1;
  const CanonicalCode lit_code = canonical_code(lit_len);
  const CanonicalCode dist_code = canonical_code(dist_len);

  // 3. Trim trailing zero lengths; HLIT >= 257, HDIST >= 1.
  std::size_t hlit = kNumLitLenSymbols;
  while (hlit > 257 && lit_len[hlit - 1] == 0) --hlit;
  std::size_t hdist = kNumDistSymbols;
  while (hdist > 1 && dist_len[hdist - 1] == 0) --hdist;

  // 4. RLE the concatenated length sequence and build the CLC code.
  std::array<std::uint8_t, kMaxLengths> all_lengths{};
  std::copy_n(lit_len.begin(), hlit, all_lengths.begin());
  std::copy_n(dist_len.begin(), hdist, all_lengths.begin() + static_cast<std::ptrdiff_t>(hlit));
  std::array<ClcSymbol, kMaxLengths> clc_buf{};
  const auto clc_symbols = std::span(clc_buf).first(
      rle_code_lengths(std::span(all_lengths).first(hlit + hdist), clc_buf));

  std::array<std::uint64_t, 19> clc_freq{};
  for (const auto& s : clc_symbols) clc_freq[s.symbol]++;
  std::array<std::uint8_t, 19> clc_len{};
  huffman_code_lengths(clc_freq, 7, clc_len);
  const CanonicalCode clc_code = canonical_code(clc_len);

  std::size_t hclen = 19;
  while (hclen > 4 && clc_len[kClcOrder[hclen - 1]] == 0) --hclen;

  // 5. Emit the header.
  w.put_bits(final_block ? 1 : 0, 1);
  w.put_bits(0b10, 2);  // BTYPE = dynamic
  w.put_bits(static_cast<std::uint32_t>(hlit - 257), 5);
  w.put_bits(static_cast<std::uint32_t>(hdist - 1), 5);
  w.put_bits(static_cast<std::uint32_t>(hclen - 4), 4);
  for (std::size_t i = 0; i < hclen; ++i) w.put_bits(clc_len[kClcOrder[i]], 3);
  for (const auto& s : clc_symbols) {
    w.put_bits(clc_code.reversed[s.symbol], clc_code.bits[s.symbol]);
    if (s.extra_bits != 0) w.put_bits(s.extra_value, s.extra_bits);
  }

  // 6. Emit the payload.
  write_tokens(w, tokens, lit_code, dist_code);
}

std::vector<std::uint8_t> deflate_dynamic(std::span<const core::Token> tokens) {
  bits::BitWriter w;
  write_dynamic_block(w, tokens, /*final_block=*/true);
  return w.take();
}

}  // namespace lzss::deflate
