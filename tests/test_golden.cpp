// Golden regression vectors.
//
// Everything in this repository is deterministic — the workload generators,
// the match finders and the cycle model — so exact output snapshots are
// stable across platforms and catch any unintended behavioural change (a
// different token stream, a one-cycle accounting drift) that the semantic
// tests might tolerate. If a change here is *intended* (e.g. recalibrating
// a workload), regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "estimator/evaluate.hpp"
#include "hw/compressor.hpp"
#include "hw/functional.hpp"
#include "lzss/mf_encoder.hpp"
#include "swmodel/cache_sim.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

struct Golden {
  const char* corpus;
  std::uint32_t input_crc;
  std::size_t hw_tokens;
  std::uint64_t hw_cycles;
  std::uint32_t hw_deflate_crc;
  std::size_t hw_deflate_size;
  std::uint32_t sw_zlib_crc;
  std::size_t sw_zlib_size;
};

// 64 KiB of each corpus at seed 42, speed-optimized configuration.
constexpr Golden kGolden[] = {
    {"wiki", 0x7C6CCC6A, 19681, 129452, 0xA03ACF79, 38306, 0xE07467BB, 37859},
    {"x2e", 0x6E1ECD65, 29034, 125081, 0xCF835F8D, 39068, 0x40ECCA1A, 39014},
    {"mixed", 0x09E3CF6E, 35065, 81378, 0x45FE4FA9, 37234, 0xB371A343, 37240},
};

// Without this, gtest prints the raw bytes of the struct — including the
// `corpus` pointer, which moves with ASLR — so the discovered ctest names
// would change from one build to the next.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.corpus; }

class GoldenVectors : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenVectors, WorkloadGeneratorIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  EXPECT_EQ(checksum::crc32(data), g.input_crc);
}

TEST_P(GoldenVectors, HardwareModelIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  EXPECT_EQ(res.tokens.size(), g.hw_tokens);
  EXPECT_EQ(res.stats.total_cycles, g.hw_cycles);
  const auto stream = deflate::deflate_fixed(res.tokens);
  EXPECT_EQ(stream.size(), g.hw_deflate_size);
  EXPECT_EQ(checksum::crc32(stream), g.hw_deflate_crc);
}

TEST_P(GoldenVectors, FunctionalTwinReproducesTheModel) {
  // The twin serves the hw backend: it must hit the model's constants above.
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  const auto tokens = hw::compress_tokens(hw::HwConfig::speed_optimized(), data);
  EXPECT_EQ(tokens.size(), g.hw_tokens);
  const auto stream = deflate::deflate_fixed(tokens);
  EXPECT_EQ(stream.size(), g.hw_deflate_size);
  EXPECT_EQ(checksum::crc32(stream), g.hw_deflate_crc);
}

TEST_P(GoldenVectors, SoftwarePathIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  const auto z = deflate::zlib_compress(data, core::MatchParams::speed_optimized());
  EXPECT_EQ(z.size(), g.sw_zlib_size);
  EXPECT_EQ(checksum::crc32(z), g.sw_zlib_crc);
}

INSTANTIATE_TEST_SUITE_P(Snapshots, GoldenVectors, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.corpus);
                         });

// zlib_compress output at the lazy and higher fast levels: 64 KiB of each
// corpus at seed 42, speed_optimized() window and hash, one row per level.
struct LevelGolden {
  const char* corpus;
  int level;
  std::uint32_t fixed_crc;
  std::size_t fixed_size;
  std::uint32_t dynamic_crc;
  std::size_t dynamic_size;
};

constexpr LevelGolden kLevelGolden[] = {
    {"wiki", 3, 0xE53E91D0, 35426, 0x977728F5, 27169},
    {"wiki", 6, 0x32408397, 32171, 0xEEEEDD8D, 25033},
    {"wiki", 9, 0x0ECEB354, 32173, 0xAC087F5E, 25034},
    {"x2e", 3, 0xA3042BBB, 38771, 0x6B40BB1E, 33935},
    {"x2e", 6, 0xA39C63FA, 36997, 0xC25BFEAC, 32687},
    {"x2e", 9, 0xA39C63FA, 36997, 0xC25BFEAC, 32687},
    {"mixed", 3, 0xDC984516, 37240, 0xC02F4460, 35436},
    {"mixed", 6, 0x5159A604, 37240, 0x9EAF133A, 35430},
    {"mixed", 9, 0x76648441, 37233, 0xDBAEB0CD, 35420},
};

void PrintTo(const LevelGolden& g, std::ostream* os) { *os << g.corpus << "_l" << g.level; }

class LevelVectors : public ::testing::TestWithParam<LevelGolden> {};

TEST_P(LevelVectors, ZlibCompressIsFrozen) {
  const LevelGolden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  const auto params = core::MatchParams::speed_optimized().with_level(g.level);
  const auto fixed = deflate::zlib_compress(data, params, deflate::BlockKind::kFixed);
  EXPECT_EQ(fixed.size(), g.fixed_size);
  EXPECT_EQ(checksum::crc32(fixed), g.fixed_crc);
  const auto dynamic = deflate::zlib_compress(data, params, deflate::BlockKind::kDynamic);
  EXPECT_EQ(dynamic.size(), g.dynamic_size);
  EXPECT_EQ(checksum::crc32(dynamic), g.dynamic_crc);
}

INSTANTIATE_TEST_SUITE_P(Snapshots, LevelVectors, ::testing::ValuesIn(kLevelGolden),
                         [](const ::testing::TestParamInfo<LevelGolden>& info) {
                           return std::string(info.param.corpus) + "_l" +
                                  std::to_string(info.param.level);
                         });

// zlib's default setting, level 6 with a 32 KiB window and a dynamic block,
// as a third-party sender would produce it. Unlike the 4 KiB rows above,
// the window reaches past 4096 bytes, where the lazy parse's TOO_FAR rule
// applies.
TEST(ZlibDefaultVectors, Level6Window15IsFrozen) {
  struct Row {
    const char* corpus;
    std::uint32_t crc;
    std::size_t size;
  };
  constexpr Row kRows[] = {
      {"wiki", 0xDDDED5E3, 21957},
      {"x2e", 0xF3931F49, 32297},
      {"mixed", 0xB5260D46, 35549},
  };
  core::MatchParams params;
  params.window_bits = 15;
  params = params.with_level(6);
  for (const Row& row : kRows) {
    const auto data = wl::make_corpus(row.corpus, 64 * 1024, 42);
    const auto z = deflate::zlib_compress(data, params, deflate::BlockKind::kDynamic);
    EXPECT_EQ(z.size(), row.size) << row.corpus;
    EXPECT_EQ(checksum::crc32(z), row.crc) << row.corpus;
  }
}

// The software encoder's operation census (the PPC440 model's input) at the
// fast and the deepest lazy level, same inputs as above.
struct CensusGolden {
  const char* corpus;
  int level;
  core::EncodeStats stats;
};

constexpr CensusGolden kCensusGolden[] = {
    {"wiki", 1, {36024, 36024, 31839, 152708, 6694, 12287, 58842, 0}},
    {"wiki", 9, {65534, 65534, 165804, 809382, 6677, 9957, 58859, 11706}},
    {"x2e", 1, {37340, 37340, 35406, 101544, 21136, 7570, 44400, 0}},
    {"x2e", 9, {65534, 65534, 428500, 2877463, 20971, 6648, 44565, 6380}},
    {"mixed", 1, {35074, 35074, 2465, 33222, 34824, 239, 30712, 0}},
    {"mixed", 9, {65534, 65534, 6271, 213154, 34827, 236, 30709, 235}},
};

void PrintTo(const CensusGolden& g, std::ostream* os) { *os << g.corpus << "_l" << g.level; }

class CensusVectors : public ::testing::TestWithParam<CensusGolden> {};

TEST_P(CensusVectors, EncodeStatsAreFrozen) {
  const CensusGolden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized().with_level(g.level));
  (void)enc.encode(data);
  const core::EncodeStats& s = enc.stats();
  EXPECT_EQ(s.hash_computations, g.stats.hash_computations);
  EXPECT_EQ(s.insertions, g.stats.insertions);
  EXPECT_EQ(s.chain_probes, g.stats.chain_probes);
  EXPECT_EQ(s.compare_bytes, g.stats.compare_bytes);
  EXPECT_EQ(s.literals, g.stats.literals);
  EXPECT_EQ(s.matches, g.stats.matches);
  EXPECT_EQ(s.match_bytes, g.stats.match_bytes);
  EXPECT_EQ(s.lazy_retries, g.stats.lazy_retries);
}

INSTANTIATE_TEST_SUITE_P(Snapshots, CensusVectors, ::testing::ValuesIn(kCensusGolden),
                         [](const ::testing::TestParamInfo<CensusGolden>& info) {
                           return std::string(info.param.corpus) + "_l" +
                                  std::to_string(info.param.level);
                         });

// The estimator's software evaluation runs the same parser, so a lazy level
// reports the lazy golden parse, not a greedy one under a "lazy" label.
TEST(SoftwareEvaluationVectors, Level9ReportsTheLazyParse) {
  for (const CensusGolden& census : kCensusGolden) {
    if (census.level != 9) continue;
    const LevelGolden* zlib = nullptr;
    for (const LevelGolden& g : kLevelGolden) {
      if (std::string_view(g.corpus) == census.corpus && g.level == 9) zlib = &g;
    }
    ASSERT_NE(zlib, nullptr) << census.corpus;
    const auto data = wl::make_corpus(census.corpus, 64 * 1024, 42);
    const auto ev =
        est::evaluate_software(core::MatchParams::speed_optimized().with_level(9), data);
    EXPECT_EQ(ev.tokens, census.stats.tokens()) << census.corpus;
    EXPECT_EQ(ev.finder.probes, census.stats.chain_probes) << census.corpus;
    // The zlib image adds a 2-byte header and the 4-byte Adler-32.
    EXPECT_EQ(ev.compressed_bytes + 6, zlib->fixed_size) << census.corpus;
  }
}

// The trace-driven PPC440 cache model over the encoder's reference stream:
// 64 KiB of wiki, 4 KiB window, 15-bit hash.
TEST(CacheTraceVectors, ReferenceStreamIsFrozen) {
  const auto data = wl::make_corpus("wiki", 64 * 1024, 42);
  const auto fast = swm::cache_timed_encode(data, 12, 15, 1);
  EXPECT_EQ(fast.trace.accesses, 202386u);
  EXPECT_EQ(fast.trace.hits, 195211u);
  EXPECT_EQ(fast.trace.misses, 7175u);
  const auto lazy = swm::cache_timed_encode(data, 12, 15, 9);
  EXPECT_EQ(lazy.trace.accesses, 694013u);
  EXPECT_EQ(lazy.trace.hits, 685702u);
  EXPECT_EQ(lazy.trace.misses, 8311u);
}

}  // namespace
}  // namespace lzss
