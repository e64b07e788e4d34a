// Parse properties of the software baseline: MatchFinderEncoder over the
// hash chain, at the fast and lazy levels. The suite keeps the baseline's
// name, SoftwareEncoder.
#include "lzss/mf_encoder.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/prng.hpp"
#include "hw/compressor.hpp"
#include "lzss/decoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::core {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(SoftwareEncoder, EmptyInput) {
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  EXPECT_TRUE(enc.encode({}).empty());
  EXPECT_EQ(enc.stats().tokens(), 0u);
}

TEST(SoftwareEncoder, TinyInputsAreLiterals) {
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  for (const std::string s : {"a", "ab", "abc"}) {
    const auto tokens = enc.encode(bytes(s));
    EXPECT_EQ(tokens.size(), s.size()) << s;
    for (const auto& t : tokens) EXPECT_TRUE(t.is_literal());
  }
}

TEST(SoftwareEncoder, SnowySnowFindsThePaperMatch) {
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  const auto tokens = enc.encode(bytes("snowy snow"));
  // 6 literals for "snowy " then one copy of "snow" from distance 6.
  ASSERT_EQ(tokens.size(), 7u);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(tokens[static_cast<std::size_t>(i)].is_literal());
  EXPECT_EQ(tokens[6], Token::match(6, 4));
}

TEST(SoftwareEncoder, RepeatedByteUsesOverlappingMatch) {
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  const std::vector<std::uint8_t> data(300, 'x');
  const auto tokens = enc.encode(data);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].is_literal());
  EXPECT_FALSE(tokens[1].is_literal());
  EXPECT_EQ(tokens[1].distance(), 1u);  // classic RLE-via-LZ
  EXPECT_TRUE(tokens_reproduce(tokens, data));
}

TEST(SoftwareEncoder, StatsAccountForEveryByte) {
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 100000);
  const auto tokens = enc.encode(data);
  const auto& st = enc.stats();
  EXPECT_EQ(st.literals + st.match_bytes, data.size());
  EXPECT_EQ(st.tokens(), tokens.size());
  EXPECT_GT(st.hash_computations, 0u);
  EXPECT_GE(st.insertions, st.tokens());  // at least one insertion per position visited
}

TEST(SoftwareEncoder, DistancesRespectTheWindow) {
  MatchParams p = MatchParams::speed_optimized();
  p.window_bits = 10;
  MatchFinderEncoder enc(p);
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto tokens = enc.encode(data);
  for (const auto& t : tokens) {
    if (!t.is_literal()) {
      EXPECT_GE(t.distance(), 1u);
      EXPECT_LE(t.distance(), p.max_distance());
      EXPECT_GE(t.length(), kMinMatch);
      EXPECT_LE(t.length(), kMaxMatch);
    }
  }
  EXPECT_TRUE(tokens_reproduce(tokens, data, p.window_size()));
}

// sw-vs-hw parity over adversarial inputs. The two pipelines prune
// differently (hw trims max_distance by the fill-ahead region, sw by the
// D-field range), so token identity is not the contract — what both must
// guarantee on every edge case is a stream that decodes byte-identically
// under each one's own window bound, with every match in range.
TEST(SoftwareEncoder, HwParityOnAdversarialInputs) {
  const MatchParams sw_params = MatchParams::speed_optimized();
  const hw::HwConfig hw_cfg = hw::HwConfig::speed_optimized();
  const std::uint32_t w = sw_params.window_size();

  std::vector<std::vector<std::uint8_t>> fixtures;
  fixtures.push_back({});                                              // empty
  fixtures.push_back({'x'});                                           // < kMinMatch
  fixtures.push_back({'x', 'y'});
  fixtures.push_back(std::vector<std::uint8_t>(kMaxMatch + kMinMatch, 0x42));  // max match at EOI
  {
    std::vector<std::uint8_t> wrap(3 * w);  // matches straddling window wraps
    for (std::size_t i = 0; i < wrap.size(); ++i)
      wrap[i] = static_cast<std::uint8_t>((i * 7) % 251);
    fixtures.push_back(std::move(wrap));
  }
  {
    rng::Xoshiro256 rng(123);
    std::vector<std::uint8_t> far(2 * w);  // a long match near max distance
    for (auto& b : far) b = rng.next_byte();
    std::memcpy(far.data() + w, far.data(), 300);
    fixtures.push_back(std::move(far));
  }

  for (const auto& strategy : {Strategy::kFast, Strategy::kSlow}) {
    MatchParams p = sw_params;
    p.strategy = strategy;
    MatchFinderEncoder sw(p);
    hw::Compressor hw_model(hw_cfg);
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
      const auto& data = fixtures[i];

      const auto sw_tokens = sw.encode(data);
      for (const auto& t : sw_tokens) {
        if (t.is_literal()) continue;
        ASSERT_GE(t.length(), kMinMatch);
        ASSERT_LE(t.length(), kMaxMatch);
        ASSERT_LE(t.distance(), p.max_distance());
      }
      EXPECT_TRUE(tokens_reproduce(sw_tokens, data, p.window_size()))
          << "sw fixture=" << i;

      const auto hw_tokens = hw_model.compress(data).tokens;
      for (const auto& t : hw_tokens) {
        if (t.is_literal()) continue;
        ASSERT_GE(t.length(), kMinMatch);
        ASSERT_LE(t.distance(), hw_cfg.max_distance());
      }
      EXPECT_TRUE(tokens_reproduce(hw_tokens, data, hw_cfg.dict_size()))
          << "hw fixture=" << i;
    }
  }
}

TEST(SoftwareEncoder, LazyMatchingImprovesOnGreedy) {
  // Classic lazy case: "ab" + "bcde" seen before; greedy takes a short match
  // at 'b', lazy prefers the longer match starting one byte later. Over real
  // text, level 9 (lazy, deep chains) must never produce more tokens than
  // level 1 (greedy, shallow).
  const auto data = wl::make_corpus("wiki", 200000);
  MatchParams base;
  MatchFinderEncoder greedy(base.with_level(1));
  MatchFinderEncoder lazy(base.with_level(9));
  const auto t1 = greedy.encode(data);
  const auto t9 = lazy.encode(data);
  EXPECT_LT(t9.size(), t1.size());
  EXPECT_TRUE(tokens_reproduce(t9, data));
}

TEST(SoftwareEncoder, DeeperChainsNeverHurtCompression) {
  const auto data = wl::make_corpus("wiki", 150000);
  MatchParams p = MatchParams::speed_optimized();
  std::size_t prev_tokens = SIZE_MAX;
  for (const std::uint32_t chain : {1u, 4u, 32u, 256u}) {
    p.max_chain = chain;
    p.nice_length = kMaxMatch;  // isolate the chain-depth effect
    MatchFinderEncoder enc(p);
    const auto tokens = enc.encode(data);
    EXPECT_LE(tokens.size(), prev_tokens) << "chain=" << chain;
    prev_tokens = tokens.size();
  }
}

TEST(SoftwareEncoder, TooFarMinimalMatchesRejectedInSlowMode) {
  // A 3-byte match at distance > 4096 costs more bits than 3 literals under
  // the fixed Huffman code; zlib's TOO_FAR rule drops it in lazy mode.
  std::vector<std::uint8_t> data;
  const std::string probe = "qzj";
  data.insert(data.end(), probe.begin(), probe.end());
  data.insert(data.end(), 6000, '.');
  data.insert(data.end(), probe.begin(), probe.end());
  data.push_back('!');

  MatchParams p;
  p.window_bits = 13;  // window 8192 covers distance 6003
  MatchFinderEncoder enc(p.with_level(9));
  const auto tokens = enc.encode(data);
  for (const auto& t : tokens) {
    if (!t.is_literal() && t.length() == kMinMatch) {
      EXPECT_LE(t.distance(), 4096u);
    }
  }
  EXPECT_TRUE(tokens_reproduce(tokens, data));
}

// --- Priming: a part encoded after the bytes before it -------------------

/// Prefix lengths around the window: none, 1 and 2 (too short to hash
/// alone), one short of max_distance(), all of it, and past it (clipped).
std::vector<std::size_t> prefix_lengths(const MatchParams& p) {
  const std::size_t n = p.max_distance();
  return {0, 1, 2, n - 1, n, n + 1, 2 * n + 5};
}

/// Both finders under the fast (level 1) and the lazy (level 6) parse.
std::vector<MatchParams> finder_parses() {
  std::vector<MatchParams> out;
  for (const MatchFinderKind kind : {MatchFinderKind::kHashChain, MatchFinderKind::kGreedy}) {
    for (const int level : {1, 6}) {
      MatchParams p = MatchParams::speed_optimized().with_level(level);
      p.finder = kind;
      out.push_back(p);
    }
  }
  return out;
}

std::string label(const MatchParams& p) {
  return std::string(finder_name(p.finder)) +
         (p.strategy == Strategy::kFast ? " fast" : " lazy");
}

TEST(SoftwareEncoder, PrimedPartsDecodeAfterTheirPrefix) {
  // Each part decodes, with its prefix as history, back to its own bytes,
  // and no match reaches past max_distance(). Parts of 0-3 bytes leave the
  // last prefix positions without 3 bytes to hash.
  const auto corpus = wl::make_corpus("wiki", 3 * 4096 + 8 * 1024, 11);
  for (const MatchParams& p : finder_parses()) {
    for (const std::size_t prefix : prefix_lengths(p)) {
      for (const std::size_t part : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{8 * 1024}}) {
        const std::string where = label(p) + " prefix " + std::to_string(prefix) + " part " +
                                  std::to_string(part);
        const std::span<const std::uint8_t> data(corpus.data(), prefix + part);
        MatchFinderEncoder enc(p);
        const auto tokens = enc.encode(data, prefix);
        // The prefix goes ahead as literal history; the window bound holds.
        std::vector<Token> with_history;
        for (std::size_t i = 0; i < prefix; ++i) with_history.push_back(Token::literal(data[i]));
        with_history.insert(with_history.end(), tokens.begin(), tokens.end());
        EXPECT_EQ(decode_tokens(with_history, p.window_size()),
                  std::vector<std::uint8_t>(data.begin(), data.end()))
            << where;
        for (const auto& t : tokens)
          if (!t.is_literal()) {
            ASSERT_LE(t.distance(), p.max_distance()) << where;
          }
        EXPECT_EQ(enc.stats().literals + enc.stats().match_bytes, part) << where;
        EXPECT_EQ(enc.stats().tokens(), tokens.size()) << where;
        // Prefix 0 is the unprimed encode, token for token.
        if (prefix == 0) {
          EXPECT_EQ(tokens, MatchFinderEncoder(p).encode(data)) << where;
        }
      }
    }
  }
}

TEST(SoftwareEncoder, PrimedMatchesReachMaxDistanceIntoThePrefixAndNoFurther) {
  // A part that repeats the prefix bytes at distance d: at max_distance()
  // its first token is that match; one byte further it is a literal.
  for (const MatchParams& p : finder_parses()) {
    const std::size_t prefix = p.window_size();
    for (const std::uint32_t dist : {p.max_distance(), p.max_distance() + 1}) {
      rng::Xoshiro256 rng(dist);
      std::vector<std::uint8_t> data(prefix + 1024);
      for (auto& b : data) b = rng.next_byte();
      std::memcpy(data.data() + prefix, data.data() + prefix - dist, 64);
      MatchFinderEncoder enc(p);
      const auto tokens = enc.encode(data, prefix);
      ASSERT_FALSE(tokens.empty()) << label(p);
      if (dist <= p.max_distance()) {
        EXPECT_EQ(tokens[0].distance(), dist) << label(p);
        EXPECT_GE(tokens[0].length(), std::min<std::uint32_t>(64, p.nice_length)) << label(p);
      } else {
        EXPECT_TRUE(tokens[0].is_literal()) << label(p);
      }
    }
  }
}

TEST(SoftwareEncoder, PrefixLongerThanTheInputThrows) {
  const std::vector<std::uint8_t> data(16, 1);
  MatchFinderEncoder enc(MatchParams::speed_optimized());
  EXPECT_THROW((void)enc.encode(data, 17), std::invalid_argument);
}

// --- Property sweep: every corpus x every level round-trips ---------------

using Param = std::tuple<std::string, int>;

class SwRoundtrip : public ::testing::TestWithParam<Param> {};

TEST_P(SwRoundtrip, DecodesToInput) {
  const auto& [corpus, level] = GetParam();
  const auto data = wl::make_corpus(corpus, 96 * 1024);
  MatchParams p;
  p.window_bits = 12;
  MatchFinderEncoder enc(p.with_level(level));
  const auto tokens = enc.encode(data);
  ASSERT_TRUE(tokens_reproduce(tokens, data, p.window_size()));
  EXPECT_EQ(enc.stats().literals + enc.stats().match_bytes, data.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllCorporaAllLevels, SwRoundtrip,
    ::testing::Combine(::testing::Values("wiki", "x2e", "netlog", "random", "zeros", "periodic64", "mixed",
                                         "ramp"),
                       ::testing::Values(1, 2, 3, 4, 6, 9)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_level" + std::to_string(std::get<1>(info.param));
    });

// Window-size sweep.
class SwWindows : public ::testing::TestWithParam<unsigned> {};

TEST_P(SwWindows, RoundtripAndWindowRespected) {
  const unsigned wbits = GetParam();
  const auto data = wl::make_corpus("wiki", 128 * 1024);
  MatchParams p;
  p.window_bits = wbits;
  MatchFinderEncoder enc(p.with_level(1));
  const auto tokens = enc.encode(data);
  EXPECT_TRUE(tokens_reproduce(tokens, data, p.window_size()));
}

INSTANTIATE_TEST_SUITE_P(WindowBits, SwWindows, ::testing::Values(10u, 11u, 12u, 13u, 14u));

}  // namespace
}  // namespace lzss::core
