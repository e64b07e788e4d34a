// Differential tests: the functional twin (hw::compress_tokens) must emit
// exactly the token stream of the cycle-accurate model (hw::Compressor) for
// every configuration the service can run and every input shape that stresses
// the model's modular bookkeeping — position-space wraps, head purges,
// max-distance candidates and end-of-input caps.
#include "hw/functional.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

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

TEST(HwTwin, RejectsInvalidConfigLikeTheModel) {
  HwConfig bad = HwConfig::speed_optimized();
  bad.dict_bits = 20;
  const std::vector<std::uint8_t> data(16, 1);
  EXPECT_THROW((void)compress_tokens(bad, data), std::invalid_argument);
}

}  // namespace
}  // namespace lzss::hw
