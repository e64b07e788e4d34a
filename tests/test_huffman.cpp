#include "deflate/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bitio.hpp"
#include "common/prng.hpp"

namespace lzss::deflate {
namespace {

TEST(CanonicalCodes, Rfc1951WorkedExample) {
  // RFC 1951 section 3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_codes(lengths);
  const std::uint16_t expected[] = {0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(codes[i], expected[i]) << i;
}

TEST(CanonicalCodes, SkipsAbsentSymbols) {
  const std::uint8_t lengths[] = {0, 1, 0, 1};
  const auto codes = canonical_codes(lengths);
  EXPECT_EQ(codes[1], 0u);
  EXPECT_EQ(codes[3], 1u);
}

TEST(HuffmanLengths, TwoSymbols) {
  const std::uint64_t freqs[] = {10, 1};
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne) {
  const std::uint64_t freqs[] = {0, 42, 0};
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_EQ(lengths[0], 0);
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[2], 0);
}

TEST(HuffmanLengths, EmptyFrequencies) {
  const std::uint64_t freqs[] = {0, 0, 0};
  const auto lengths = huffman_code_lengths(freqs, 15);
  for (const auto l : lengths) EXPECT_EQ(l, 0);
}

TEST(HuffmanLengths, KraftInequalityHolds) {
  rng::Xoshiro256 rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> freqs(64);
    for (auto& f : freqs) f = rng.next_below(1000);
    const auto lengths = huffman_code_lengths(freqs, 15);
    double kraft = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (freqs[i] != 0) {
        EXPECT_GE(lengths[i], 1u);
        EXPECT_LE(lengths[i], 15u);
        kraft += std::pow(2.0, -static_cast<double>(lengths[i]));
      } else {
        EXPECT_EQ(lengths[i], 0u);
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
  }
}

TEST(HuffmanLengths, LengthLimitEnforcedOnSkewedInput) {
  // Fibonacci-like frequencies force depths > 7 in an unconstrained build.
  std::vector<std::uint64_t> freqs(24);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = huffman_code_lengths(freqs, 7);
  double kraft = 0;
  for (const auto l : lengths) {
    ASSERT_GE(l, 1u);
    ASSERT_LE(l, 7u);
    kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(HuffmanLengths, FrequentSymbolsGetShorterCodes) {
  const std::uint64_t freqs[] = {1000, 1, 1, 1};
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(HuffmanDecoder, DecodesCanonicalStream) {
  const std::uint8_t lengths[] = {2, 2, 2, 2};
  HuffmanDecoder dec(lengths);
  const auto codes = canonical_codes(lengths);
  for (unsigned sym = 0; sym < 4; ++sym) {
    bits::BitWriter w;
    w.put_huffman(codes[sym], 2);
    const auto bytes = w.take();
    bits::BitReader r(bytes);
    r.refill();
    EXPECT_EQ(dec.decode(r).value(), sym);
  }
}

TEST(HuffmanDecoder, MixedLengthRoundtrip) {
  rng::Xoshiro256 rng(23);
  std::vector<std::uint64_t> freqs(40);
  for (auto& f : freqs) f = 1 + rng.next_below(500);
  const auto lengths = huffman_code_lengths(freqs, 15);
  const auto codes = canonical_codes(lengths);
  HuffmanDecoder dec(lengths);

  std::vector<unsigned> symbols(3000);
  bits::BitWriter w;
  for (auto& s : symbols) {
    s = static_cast<unsigned>(rng.next_below(freqs.size()));
    w.put_huffman(codes[s], lengths[s]);
  }
  const auto bytes = w.take();
  bits::BitReader r(bytes);
  for (const auto s : symbols) {
    r.refill();
    EXPECT_EQ(dec.decode(r).value(), s);
  }
}

TEST(HuffmanDecoder, FifteenBitCodesRoundTrip) {
  // Symbol k occurs 2^k times, more than everything rarer together, so the
  // code is a chain that reaches the 15-bit limit: decoding goes through
  // the sub-tables behind the root table.
  std::vector<std::uint64_t> freqs(16);
  for (std::size_t k = 0; k < freqs.size(); ++k) freqs[k] = std::uint64_t{1} << k;
  freqs[0] = 1;
  freqs[1] = 3;
  const auto lengths = huffman_code_lengths(freqs, 15);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), 15);
  const auto codes = canonical_codes(lengths);
  HuffmanDecoder dec(lengths);

  rng::Xoshiro256 rng(15);
  std::vector<unsigned> symbols;
  bits::BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    // Every symbol, longest codes included, then a random mix.
    const unsigned s = i < 16 ? static_cast<unsigned>(i)
                              : static_cast<unsigned>(rng.next_below(freqs.size()));
    symbols.push_back(s);
    w.put_huffman(codes[s], lengths[s]);
  }
  const auto bytes = w.take();
  bits::BitReader r(bytes);
  for (const auto s : symbols) {
    r.refill();
    EXPECT_EQ(dec.decode(r).value(), s);
  }
}

TEST(HuffmanDecoder, ExtraBitsAreConsumedWithTheCode) {
  const std::uint8_t lengths[] = {2, 2, 2, 2};
  const std::uint8_t extra_bits[] = {0, 3, 13};  // symbol 3: past the end, none
  HuffmanDecoder dec(lengths, extra_bits);
  const auto codes = canonical_codes(lengths);
  const std::pair<unsigned, std::uint32_t> stream[] = {{1, 5}, {0, 0}, {2, 0x1ABC}, {3, 0}, {2, 0}};
  bits::BitWriter w;
  for (const auto& [sym, extra] : stream) {
    w.put_huffman(codes[sym], 2);
    w.put_bits(extra, extra_bits[0] + (sym < 3 ? extra_bits[sym] : 0));
  }
  const auto bytes = w.take();
  bits::BitReader r(bytes);
  for (const auto& [sym, extra] : stream) {
    r.refill();
    const auto got = dec.decode(r);
    EXPECT_EQ(got.value(), sym);
    EXPECT_EQ(got.extra(), extra);
  }
  EXPECT_EQ(r.bit_position(), 2u * 5 + 3 + 13 + 13);
}

TEST(HuffmanDecoder, IncompleteCodeRejectsItsUnusedCode) {
  const std::uint8_t lengths[] = {1};  // code 0 is symbol 0; code 1 is unused
  HuffmanDecoder dec(lengths);
  const std::vector<std::uint8_t> zero{0x00}, one{0x01};
  bits::BitReader r0(zero), r1(one);
  r0.refill();
  r1.refill();
  EXPECT_EQ(dec.decode(r0).value(), 0u);
  EXPECT_THROW((void)dec.decode(r1), std::runtime_error);
}

TEST(HuffmanDecoder, CodeRunningPastTheInputThrowsOutOfRange) {
  const std::uint8_t lengths[] = {2, 2, 2, 3, 3};
  HuffmanDecoder dec(lengths);
  const std::vector<std::uint8_t> none;
  bits::BitReader r(none);
  r.refill();
  EXPECT_THROW((void)dec.decode(r), std::out_of_range);
}

TEST(HuffmanDecoder, RejectsOversubscribedCode) {
  const std::uint8_t bad[] = {1, 1, 1};  // three length-1 codes cannot exist
  EXPECT_THROW(HuffmanDecoder{bad}, std::invalid_argument);
}

TEST(HuffmanDecoder, AcceptsIncompleteCode) {
  const std::uint8_t lengths[] = {1};  // single-symbol distance code case
  EXPECT_NO_THROW(HuffmanDecoder{lengths});
}

TEST(HuffmanDecoder, RejectsTooLongLengths) {
  const std::uint8_t bad[] = {16};
  EXPECT_THROW(HuffmanDecoder{bad}, std::invalid_argument);
}

TEST(HuffmanDecoder, EmptyFlag) {
  const std::uint8_t none[] = {0, 0};
  HuffmanDecoder dec(none);
  EXPECT_TRUE(dec.empty());
  const std::uint8_t some[] = {1, 0};
  EXPECT_FALSE(HuffmanDecoder(some).empty());
}

TEST(HuffmanOptimality, MatchesEntropyWithinOneBit) {
  // The expected code length of an optimal prefix code is within 1 bit of
  // the source entropy (Shannon). Check on random distributions.
  rng::Xoshiro256 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> freqs(32);
    std::uint64_t total = 0;
    for (auto& f : freqs) {
      f = 1 + rng.next_below(2000);
      total += f;
    }
    const auto lengths = huffman_code_lengths(freqs, 15);
    double entropy = 0, avg_len = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const double p = static_cast<double>(freqs[i]) / static_cast<double>(total);
      entropy -= p * std::log2(p);
      avg_len += p * lengths[i];
    }
    EXPECT_GE(avg_len, entropy - 1e-9);
    EXPECT_LE(avg_len, entropy + 1.0);
  }
}

}  // namespace
}  // namespace lzss::deflate
