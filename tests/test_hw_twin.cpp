// Differential tests: the functional twin (hw::compress_tokens) must emit
// exactly the token stream of the cycle-accurate model (hw::Compressor) for
// every configuration the service can run and every input shape that stresses
// the model's modular bookkeeping — position-space wraps, head purges,
// max-distance candidates and end-of-input caps.
#include "hw/functional.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "estimator/presets.hpp"
#include "hw/compressor.hpp"
#include "workloads/corpus.hpp"

namespace lzss::hw {
namespace {

void expect_parity(const HwConfig& cfg, std::span<const std::uint8_t> data,
                   const std::string& what) {
  Compressor model(cfg);
  const auto expected = model.compress(data).tokens;
  const auto actual = compress_tokens(cfg, data);
  ASSERT_EQ(actual.size(), expected.size()) << what << " " << cfg.describe();
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << what << " token " << i << " " << cfg.describe();
}

/// The fixtures of SoftwareEncoder.HwParityOnAdversarialInputs, scaled to
/// the dictionary of @p cfg.
std::vector<std::vector<std::uint8_t>> adversarial_fixtures(const HwConfig& cfg) {
  const std::size_t w = cfg.dict_size();
  std::vector<std::vector<std::uint8_t>> fixtures;
  fixtures.push_back({});
  fixtures.push_back({'x'});
  fixtures.push_back({'x', 'y'});
  fixtures.push_back(std::vector<std::uint8_t>(core::kMaxMatch + core::kMinMatch, 0x42));
  {
    std::vector<std::uint8_t> wrap(3 * w);
    for (std::size_t i = 0; i < wrap.size(); ++i)
      wrap[i] = static_cast<std::uint8_t>((i * 7) % 251);
    fixtures.push_back(std::move(wrap));
  }
  {
    rng::Xoshiro256 rng(123);
    std::vector<std::uint8_t> far(2 * w);
    for (auto& b : far) b = rng.next_byte();
    std::memcpy(far.data() + w, far.data(), 300);
    fixtures.push_back(std::move(far));
  }
  return fixtures;
}

TEST(HwTwin, MatchesModelOnEveryCorpusAndPreset) {
  for (const est::Preset& preset : est::standard_presets()) {
    for (const std::string& corpus : wl::corpus_names()) {
      // 96 KiB crosses the 2^16 position wrap of the speed preset.
      const auto data = wl::make_corpus(corpus, 96 * 1024, 42);
      expect_parity(preset.config, data, preset.name + "/" + corpus);
    }
  }
}

TEST(HwTwin, MatchesModelOnAdversarialFixtures) {
  for (const est::Preset& preset : est::standard_presets()) {
    const auto fixtures = adversarial_fixtures(preset.config);
    for (std::size_t i = 0; i < fixtures.size(); ++i)
      expect_parity(preset.config, fixtures[i], preset.name + "/fixture " + std::to_string(i));
  }
}

TEST(HwTwin, MatchesModelAcrossGenerationBitsAndLevels) {
  // G = 0 lets head entries alias across the position wrap (the purge every
  // N bytes cannot keep up), G = 1 and 2 purge every N and 3N bytes, G = 8
  // almost never; levels move the chain, nice-length and insert knobs.
  const auto wiki = wl::make_corpus("wiki", 160 * 1024, 7);
  const auto x2e = wl::make_corpus("x2e", 160 * 1024, 7);
  for (const unsigned gen : {0u, 1u, 2u, 8u}) {
    for (const int level : {1, 4, 9}) {
      HwConfig cfg = HwConfig::speed_optimized().with_level(level);
      cfg.dict_bits = 10;
      cfg.hash.bits = 10;
      cfg.generation_bits = gen;
      const std::string what = "gen=" + std::to_string(gen) + " level=" + std::to_string(level);
      expect_parity(cfg, wiki, what + " wiki");
      expect_parity(cfg, x2e, what + " x2e");
    }
  }
}

TEST(HwTwin, MatchesModelOnTimingOnlyKnobs) {
  // Bus width, prefetch, head split, lookahead size and the next-table form
  // change cycle counts; the multiplicative hash changes chains. All must
  // leave the twin and the model in step.
  const auto data = wl::make_corpus("mixed", 128 * 1024, 3);
  HwConfig narrow = HwConfig::speed_optimized();
  narrow.bus_width_bytes = 1;
  narrow.hash_prefetch = false;
  narrow.head_split = 1;
  narrow.relative_next = false;
  expect_parity(narrow, data, "narrow");
  HwConfig wide = HwConfig::speed_optimized();
  wide.lookahead_bytes = 1024;
  wide.dict_bits = 14;
  expect_parity(wide, data, "lookahead 1024");
  HwConfig mult = HwConfig::speed_optimized();
  mult.hash.kind = core::HashKind::kMultiplicative;
  mult.hash.bits = 12;
  expect_parity(mult, data, "multiplicative");
}

TEST(HwTwin, CensusRunIsTheModel) {
  // With a census, compress_tokens runs the model itself: its tokens and
  // its whole cycle accounting.
  const HwConfig cfg = HwConfig::speed_optimized();
  for (const std::string& corpus : wl::corpus_names()) {
    const auto data = wl::make_corpus(corpus, 32 * 1024, 42);
    const auto expected = Compressor(cfg).compress(data);
    CycleStats census;
    EXPECT_EQ(compress_tokens(cfg, data, &census), expected.tokens) << corpus;
    EXPECT_EQ(census, expected.stats) << corpus;
  }
}

/// A primed run: the tokens of @p data after its first @p prefix bytes. The
/// twin and the census run must equal the model preloaded with the last
/// dictionary of the prefix, and the census must account for the preload:
/// one HashUpdate cycle per prefix position with 3 bytes to hash.
void expect_primed_parity(const HwConfig& cfg, std::span<const std::uint8_t> data,
                          std::size_t prefix, const std::string& what) {
  const std::string where = what + " prefix " + std::to_string(prefix) + " " + cfg.describe();
  const std::size_t preload = std::min<std::size_t>(prefix, cfg.dict_size());
  const auto window = data.subspan(prefix - preload);
  const auto expected = Compressor(cfg).compress(window, preload);
  const auto twin = compress_tokens(cfg, data, nullptr, prefix);
  ASSERT_EQ(twin.size(), expected.tokens.size()) << where;
  for (std::size_t i = 0; i < twin.size(); ++i)
    ASSERT_EQ(twin[i], expected.tokens[i]) << where << " token " << i;

  CycleStats census;
  EXPECT_EQ(compress_tokens(cfg, data, &census, prefix), expected.tokens) << where;
  EXPECT_EQ(census, expected.stats) << where;
  const std::size_t part = data.size() - prefix;
  const std::size_t hashable = window.size() < 2 ? 0 : std::min(preload, window.size() - 2);
  EXPECT_EQ(census.bytes_in, part) << where;
  EXPECT_EQ(census.preloaded, part == 0 ? 0 : hashable) << where;
  EXPECT_GE(census.updating, census.preloaded) << where;
  EXPECT_EQ(census.waiting + census.fetching + census.matching + census.output +
                census.updating + census.rotating,
            census.total_cycles)
      << where;
}

/// Prefix lengths around the dictionary: none, 1 and 2 (too short to hash
/// alone), one short of it, all of it, and past it (clipped).
std::vector<std::size_t> prefix_lengths(const HwConfig& cfg) {
  const std::size_t n = cfg.dict_size();
  return {0, 1, 2, n - 1, n, n + 1, 2 * n + 5};
}

TEST(HwTwin, PrimedTwinMatchesModelOnEveryCorpusAndPreset) {
  constexpr std::size_t kPart = 8 * 1024;
  for (const est::Preset& preset : est::standard_presets()) {
    const auto& cfg = preset.config;
    for (const std::string& corpus : wl::corpus_names()) {
      const auto data = wl::make_corpus(corpus, 2 * cfg.dict_size() + 5 + kPart, 42);
      for (const std::size_t prefix : prefix_lengths(cfg))
        expect_primed_parity(cfg, std::span(data).first(prefix + kPart), prefix,
                             preset.name + "/" + corpus);
    }
  }
}

TEST(HwTwin, PrimedTwinMatchesModelOnTinyParts) {
  // Parts of 0-3 bytes: the last prefix positions lack 3 bytes to hash.
  const HwConfig cfg = HwConfig::speed_optimized();
  const auto data = wl::make_corpus("wiki", 3 * cfg.dict_size(), 5);
  for (const std::size_t prefix : prefix_lengths(cfg))
    for (std::size_t part = 0; part <= 3; ++part)
      expect_primed_parity(cfg, std::span(data).first(prefix + part), prefix,
                           "part " + std::to_string(part));
}

TEST(HwTwin, PrimedAtPurgeSkipBoundary) {
  // FuzzHwTwin.PurgeSkipBoundary's configs and sizes (around the position
  // space, where the twin stops skipping the purge scan, and just past the
  // first rotation), with the sizes counting prefix and part together.
  rng::Xoshiro256 rng(44);
  const auto names = wl::corpus_names();
  for (int trial = 0; trial < 24; ++trial) {
    HwConfig cfg;
    cfg.dict_bits = 10 + static_cast<unsigned>(rng.next_below(2));
    cfg.generation_bits = static_cast<unsigned>(rng.next_below(4));
    cfg.hash.bits = 8 + static_cast<unsigned>(rng.next_below(8));
    cfg.max_chain = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    cfg.nice_length = 3 + static_cast<std::uint32_t>(rng.next_below(32));
    cfg.max_insert = 3 + static_cast<std::uint32_t>(rng.next_below(30));
    cfg.hash.kind = rng.next_below(2) == 0 ? core::HashKind::kZlibShift
                                           : core::HashKind::kMultiplicative;
    const std::size_t space = cfg.position_modulus();
    const std::size_t first_rotation = cfg.rotation_interval();
    for (const std::size_t size : {first_rotation + 1, space - 1, space, space + 1}) {
      const auto data = wl::make_corpus(names[rng.next_below(names.size())], size,
                                        900 + static_cast<std::uint64_t>(trial));
      for (const std::size_t prefix : prefix_lengths(cfg))
        expect_primed_parity(cfg, data, std::min(size, prefix), "trial " + std::to_string(trial));
    }
  }
}

TEST(HwTwin, PrimedMatchesReachMaxDistanceIntoThePrefixAndNoFurther) {
  // A part that repeats the prefix bytes at distance d: at max_distance()
  // its first token is that match; one byte further it is a literal.
  for (const est::Preset& preset : est::standard_presets()) {
    const HwConfig& cfg = preset.config;
    const std::size_t prefix = cfg.dict_size();
    const std::uint32_t max_dist = cfg.max_distance();
    for (const std::uint32_t dist : {max_dist, max_dist + 1}) {
      rng::Xoshiro256 rng(dist);
      std::vector<std::uint8_t> data(prefix + 1024);
      for (auto& b : data) b = rng.next_byte();
      std::memcpy(data.data() + prefix, data.data() + prefix - dist, 64);
      const auto tokens = compress_tokens(cfg, data, nullptr, prefix);
      ASSERT_FALSE(tokens.empty());
      if (dist <= max_dist) {
        EXPECT_EQ(tokens[0].distance(), dist) << preset.name;
        EXPECT_GE(tokens[0].length(), std::min<std::uint32_t>(64, cfg.nice_length)) << preset.name;
      } else {
        EXPECT_TRUE(tokens[0].is_literal()) << preset.name;
      }
      EXPECT_EQ(tokens, Compressor(cfg).compress(data, prefix).tokens) << preset.name;
    }
  }
}

TEST(HwTwin, PrefixLongerThanTheInputThrows) {
  const std::vector<std::uint8_t> data(16, 1);
  EXPECT_THROW((void)compress_tokens(HwConfig::speed_optimized(), data, nullptr, 17),
               std::invalid_argument);
}

TEST(HwTwin, RejectsInvalidConfigLikeTheModel) {
  HwConfig bad = HwConfig::speed_optimized();
  bad.dict_bits = 20;
  const std::vector<std::uint8_t> data(16, 1);
  EXPECT_THROW((void)compress_tokens(bad, data), std::invalid_argument);
}

}  // namespace
}  // namespace lzss::hw
