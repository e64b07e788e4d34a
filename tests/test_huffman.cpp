#include "deflate/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/bitio.hpp"
#include "common/prng.hpp"
#include "deflate/fixed_tables.hpp"

namespace lzss::deflate {
namespace {

TEST(CanonicalCodes, Rfc1951WorkedExample) {
  // RFC 1951 section 3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_code(lengths).code;
  const std::uint16_t expected[] = {0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(codes[i], expected[i]) << i;
}

TEST(CanonicalCodes, SkipsAbsentSymbols) {
  const std::uint8_t lengths[] = {0, 1, 0, 1};
  const auto codes = canonical_code(lengths).code;
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

// The heap-based builder that huffman_code_lengths() replaced, kept verbatim
// as the reference its code lengths must match: a (freq, node index) min-heap,
// a depth-first depth pass, then the zlib-style Kraft repair.
std::vector<std::uint8_t> reference_code_lengths(std::span<const std::uint64_t> freqs,
                                                 unsigned max_bits) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  struct Node {
    std::uint64_t freq;
    int left = -1, right = -1;  // -1 for leaves
    std::uint16_t symbol = 0;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);

  using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<std::uint16_t>(s)});
    heap.emplace(freqs[s], static_cast<int>(nodes.size() - 1));
  }
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[nodes[heap.top().second].symbol] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, 0});
    heap.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
  }

  // Depth-first assignment of depths.
  std::vector<std::pair<int, unsigned>> stack{{heap.top().second, 0}};
  unsigned overflow_max = 0;
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(idx)];
    if (nd.left < 0) {
      lengths[nd.symbol] = static_cast<std::uint8_t>(std::min(depth, max_bits));
      overflow_max = std::max(overflow_max, depth);
      continue;
    }
    stack.emplace_back(nd.left, depth + 1);
    stack.emplace_back(nd.right, depth + 1);
  }

  if (overflow_max <= max_bits) return lengths;

  // Kraft repair (zlib-style): clamping to max_bits over-subscribes the
  // code space; lengthen the cheapest symbols until the Kraft sum is exact.
  const std::uint64_t budget = 1ull << max_bits;
  auto kraft = [&] {
    std::uint64_t k = 0;
    for (const auto l : lengths)
      if (l != 0) k += budget >> l;
    return k;
  };
  // Symbols sorted by ascending frequency, so we demote the rarest first.
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < n; ++s)
    if (freqs[s] != 0) order.push_back(s);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return freqs[a] < freqs[b]; });

  std::uint64_t k = kraft();
  while (k > budget) {
    // Find a symbol whose code can be lengthened (length < max_bits).
    bool changed = false;
    for (const std::size_t s : order) {
      if (lengths[s] != 0 && lengths[s] < max_bits) {
        k -= budget >> lengths[s];
        lengths[s]++;
        k += budget >> lengths[s];
        changed = true;
        if (k <= budget) break;
      }
    }
    if (!changed) throw std::logic_error("huffman_code_lengths: cannot satisfy Kraft");
  }
  // Optionally shorten codes to use the slack (keeps the code canonicalizable
  // and slightly improves efficiency); iterate from the most frequent.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    while (lengths[*it] > 1) {
      const std::uint64_t gain = (budget >> (lengths[*it] - 1)) - (budget >> lengths[*it]);
      if (k + gain > budget) break;
      lengths[*it]--;
      k += gain;
    }
  }
  return lengths;
}

// A frequency vector of n symbols, @p used of them non-zero, drawn as one of
// the shapes the builder must agree on: uniform counts, heavy ties, or a
// Fibonacci chain (the skew that drives a tree past max_bits).
enum class Shape { kUniform, kTies, kFibonacci };

std::vector<std::uint64_t> make_freqs(rng::Xoshiro256& rng, std::size_t n, std::size_t used,
                                      Shape shape) {
  std::vector<std::size_t> symbols(n);
  std::iota(symbols.begin(), symbols.end(), 0);
  for (std::size_t i = n - 1; i > 0; --i) std::swap(symbols[i], symbols[rng.next_below(i + 1)]);
  std::vector<std::uint64_t> freqs(n, 0);
  std::uint64_t a = 1, b = 1;
  for (std::size_t i = 0; i < used; ++i) {
    std::uint64_t f = 0;
    switch (shape) {
      case Shape::kUniform: f = 1 + rng.next_below(5000); break;
      case Shape::kTies: f = 1 + rng.next_below(3); break;
      case Shape::kFibonacci: {
        f = a;
        const std::uint64_t next = a + b;
        a = b;
        b = next;
        if (i % 60 == 59) a = b = 1;  // restart the chain: every count stays small
        break;
      }
    }
    freqs[symbols[i]] = f;
  }
  return freqs;
}

TEST(HuffmanLengths, MatchesHeapReference) {
  rng::Xoshiro256 rng(20);
  std::size_t repaired[2] = {};  // at max_bits 15 and 7
  for (const std::size_t n : {std::size_t{286}, std::size_t{30}, std::size_t{19}}) {
    for (const Shape shape : {Shape::kUniform, Shape::kTies, Shape::kFibonacci}) {
      for (int trial = 0; trial < 200; ++trial) {
        // 0, 1 and 2 used symbols first, then every alphabet fill from
        // mostly-zero to full.
        const std::size_t used = trial < 3 ? static_cast<std::size_t>(trial)
                                           : 1 + rng.next_below(n);
        const auto freqs = make_freqs(rng, n, used, shape);
        for (const unsigned max_bits : {15u, 7u}) {
          if (used > (std::size_t{1} << max_bits)) continue;  // no code fits
          const auto want = reference_code_lengths(freqs, max_bits);
          ASSERT_EQ(huffman_code_lengths(freqs, max_bits), want)
              << "n=" << n << " used=" << used << " shape=" << static_cast<int>(shape)
              << " max_bits=" << max_bits << " trial=" << trial;
          if (reference_code_lengths(freqs, 30) != want) ++repaired[max_bits == 7];
        }
      }
    }
  }
  // The Fibonacci chains reach the Kraft repair at both limits.
  EXPECT_GT(repaired[0], 50u);
  EXPECT_GT(repaired[1], 50u);
}

TEST(HuffmanLengths, AlphabetPastTheSortKeyThrows) {
  // A symbol takes 9 bits of the packed (freq, symbol) sort key.
  std::vector<std::uint64_t> freqs(kMaxHuffmanSymbols, 1);
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_TRUE(std::all_of(lengths.begin(), lengths.end(), [](auto l) { return l == 9; }));
  freqs.push_back(0);
  EXPECT_THROW((void)huffman_code_lengths(freqs, 15), std::invalid_argument);
}

TEST(HuffmanLengths, FrequencyPastTheSortKeyThrows) {
  // A frequency takes the key's other 55 bits; 512 of the largest still sum
  // inside 64 bits.
  std::vector<std::uint64_t> freqs(kMaxHuffmanSymbols, kMaxHuffmanFreq);
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_TRUE(std::all_of(lengths.begin(), lengths.end(), [](auto l) { return l == 9; }));
  freqs[3] = kMaxHuffmanFreq + 1;
  EXPECT_THROW((void)huffman_code_lengths(freqs, 15), std::invalid_argument);
}

TEST(HuffmanLengths, LengthsSpanOfAnotherSizeThrows) {
  const std::uint64_t freqs[] = {3, 1, 2};
  std::uint8_t lengths[2];
  EXPECT_THROW(huffman_code_lengths(freqs, 15, lengths), std::invalid_argument);
}

TEST(HuffmanLengths, FrequentSymbolsGetShorterCodes) {
  const std::uint64_t freqs[] = {1000, 1, 1, 1};
  const auto lengths = huffman_code_lengths(freqs, 15);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(HuffmanDecoder, DecodesCanonicalStream) {
  const std::uint8_t lengths[] = {2, 2, 2, 2};
  HuffmanDecoder dec(lengths);
  const auto codes = canonical_code(lengths).code;
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
  const auto codes = canonical_code(lengths).code;
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
  const auto codes = canonical_code(lengths).code;
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
  const auto codes = canonical_code(lengths).code;
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

TEST(HuffmanDecoder, RejectsMoreThan288Symbols) {
  std::vector<std::uint8_t> lengths(289, 0);
  lengths[0] = lengths[1] = 1;
  EXPECT_THROW(HuffmanDecoder{lengths}, std::invalid_argument);
  lengths.pop_back();
  EXPECT_NO_THROW(HuffmanDecoder{lengths});
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
