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
#include "container/codec.hpp"
#include "common/prng.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/huffman.hpp"
#include "deflate/inflate.hpp"
#include "estimator/evaluate.hpp"
#include "hw/compressor.hpp"
#include "hw/functional.hpp"
#include "lzss/decoder.hpp"
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

// The seekable archive's per-block Deflate streams: 1 MiB of each corpus,
// 32 KiB window, dynamic Huffman on the software token source and the speed
// preset's fixed Huffman on the hw one. Each entry is one LZBC record's
// payload, a raw Deflate stream: {size, CRC-32}. These were generated from
// the block-indexed LZSA archive the container replaced (whose blocks were
// zlib streams around the same Deflate bytes); archive_bytes is that
// archive's size, 30 bytes per block plus 20 around the streams, which LZBC's
// 16 per block plus 24 must not exceed.
struct ArchiveBlock {
  std::size_t size;
  std::uint32_t crc;
};

struct ArchiveGolden {
  const char* corpus;
  int level;
  unsigned block_kb;
  bool hw;
  std::size_t archive_bytes;
  std::vector<ArchiveBlock> blocks;
};

const ArchiveGolden kArchiveGolden[] = {
    {"x2e", 1, 64, false, 546405,
     {{34110, 0x9F82B596}, {34262, 0xD97A70BB}, {34203, 0x8E72ECB3}, {34023, 0x029B8E01},
      {34237, 0xDC75D2C8}, {34057, 0x9D9AF03B}, {34129, 0x7D6D99CD}, {34410, 0x08FFAAE3},
      {33959, 0x70E16BEF}, {34011, 0x6C1715DC}, {34064, 0x9B003315}, {34045, 0x15FB04FE},
      {34164, 0x26326AED}, {34163, 0x4CAF0454}, {34011, 0x24BD64D4}, {34057, 0x2D6EF3D0}}},
    {"x2e", 1, 256, false, 542389,
     {{135709, 0xD2B9B1F3}, {135887, 0x71357121}, {135124, 0x168BC46E}, {135529, 0xA8D85977}}},
    {"x2e", 6, 64, false, 520547,
     {{32447, 0x67914195}, {32611, 0x0A9CC75E}, {32618, 0x9B8A266F}, {32460, 0x8C6779C1},
      {32570, 0x38180DD0}, {32410, 0xB3526287}, {32422, 0x3F4A9D15}, {32793, 0x41517683},
      {32367, 0xDA9352A0}, {32431, 0xEEC4DFD9}, {32437, 0xC4DE0A49}, {32459, 0x1F1FD361},
      {32518, 0x80D74FB4}, {32521, 0x2DA0B969}, {32467, 0xEA7BDB98}, {32516, 0x0C8FC1E1}}},
    {"x2e", 6, 256, false, 518371,
     {{129695, 0xE6B69C63}, {129723, 0x1F535DFA}, {129248, 0x66BFC3DA}, {129565, 0xCF0BC126}}},
    {"wiki", 1, 64, false, 438299,
     {{27257, 0x5265259C}, {27407, 0x43CFF338}, {27359, 0x7D4A772F}, {27365, 0xAD104201},
      {27391, 0x612D09E6}, {27326, 0x77EDE163}, {27489, 0xA453A8F5}, {27208, 0xBE849F68},
      {27420, 0xD966E819}, {27262, 0x927AC18D}, {27273, 0x4DC28702}, {27397, 0xF7B9A032},
      {27230, 0x03EDB520}, {27543, 0xA1C463C1}, {27526, 0x1D08D74F}, {27346, 0x93EFCE45}}},
    {"wiki", 1, 256, false, 429154,
     {{107352, 0x2572F70A}, {107136, 0x752CC886}, {107254, 0x8858E32C}, {107272, 0xB89B8AB9}}},
    {"wiki", 6, 64, false, 351674,
     {{21949, 0x277B9912}, {21999, 0x4F670A26}, {22051, 0x507F10BD}, {22038, 0xEFDBFEF7},
      {21993, 0x2FD17AAE}, {21908, 0xCCFCD0E8}, {22078, 0x01902A9B}, {21770, 0x94E90814},
      {21997, 0x1C26AE07}, {21838, 0x033F55DA}, {21885, 0xB814C9E9}, {21948, 0xF280A77E},
      {21755, 0xA94F7B5F}, {22098, 0xE83B3EF5}, {21987, 0x0321891C}, {21880, 0xC0F83F44}}},
    {"wiki", 6, 256, false, 333507,
     {{83591, 0x1AF74BA7}, {83222, 0x1A395F23}, {83287, 0xE869CBF8}, {83267, 0x915C07F2}}},
    {"netlog", 1, 64, false, 428812,
     {{21352, 0x16FC9792}, {26700, 0xFD48C71D}, {28243, 0xBD0AE608}, {30035, 0x01569933},
      {28065, 0x9F48691D}, {27452, 0xF76D2547}, {30370, 0xA6A12BB5}, {26838, 0x2DBBCD3E},
      {26624, 0x51EC6667}, {29589, 0x1CD64894}, {25944, 0xFCF6E268}, {25764, 0xC24C7C52},
      {25734, 0x81BA9ACF}, {24976, 0x153BE565}, {25758, 0x063FAFB0}, {24868, 0x31E526DB}}},
    {"netlog", 1, 256, false, 420613,
     {{104072, 0x4C0C44B1}, {111339, 0x10F716EF}, {105890, 0xC04E8E65}, {99172, 0x9BF60A09}}},
    {"netlog", 6, 64, false, 412566,
     {{20307, 0x27B07F85}, {25445, 0xA590D567}, {27067, 0xD9389212}, {28762, 0x62A5847B},
      {27145, 0xD4B8E7AB}, {26645, 0x6C1CE48E}, {29470, 0x6D2F5642}, {25990, 0x900A887C},
      {25454, 0x84E10A27}, {28498, 0xE1A15895}, {24994, 0x44FA1CB0}, {24918, 0xD10C11D3},
      {24837, 0xCBEF99D1}, {23718, 0x8E9D976F}, {24862, 0x1198A65A}, {23954, 0x9548DAF8}}},
    {"netlog", 6, 256, false, 400303,
     {{98606, 0xAA3AEE19}, {106269, 0x1B200457}, {100898, 0x8E281E3C}, {94390, 0x954E4696}}},
    {"x2e", 1, 64, true, 632575,
     {{39464, 0x5E769733}, {39512, 0x1204F2E2}, {39558, 0x40809BDC}, {39297, 0xABFA258E},
      {39673, 0x5593F67E}, {39518, 0x6BE82E5F}, {39580, 0x27A5C5EB}, {39719, 0x71DABAD7},
      {39384, 0x905DCF8F}, {39278, 0xED46626B}, {39488, 0xEA4D0F0E}, {39441, 0x4274BE56},
      {39584, 0xD85FBE46}, {39650, 0x9B5C9149}, {39389, 0xF63BC177}, {39540, 0xC8A19CD8}}},
    {"x2e", 1, 256, true, 631432,
     {{157643, 0xFD6F0B94}, {158290, 0x46FFC00E}, {157398, 0x9F977714}, {157961, 0x8EDE774E}}},
    {"wiki", 1, 64, true, 613921,
     {{38300, 0xE33373BB}, {38408, 0xB0032AF8}, {38298, 0x0CBA1BE5}, {38500, 0xBABFC91F},
      {38399, 0xA4E5AAD8}, {38199, 0x8AE04B52}, {38335, 0x7939B9B5}, {38124, 0xB384E0A5},
      {38510, 0x8FDBEBCC}, {38313, 0xCF979EAF}, {38326, 0x8C23F2ED}, {38403, 0x9F63342E},
      {38147, 0xD04D2623}, {38474, 0x99981B2F}, {38395, 0xEC673C6F}, {38290, 0x7924F4E0}}},
    {"wiki", 1, 256, true, 611137,
     {{152884, 0x881B541F}, {152473, 0x524F6B08}, {152963, 0xBF08568A}, {152677, 0xB3AB62C9}}},
    {"netlog", 1, 64, true, 538625,
     {{26980, 0x00DCAE7E}, {33542, 0xF2535E0B}, {35037, 0x699F5FA0}, {36328, 0xC0189467},
      {34503, 0x629C92B4}, {35165, 0x1087E954}, {38160, 0x15DFB986}, {33950, 0x83853446},
      {34103, 0x9C448BA8}, {35595, 0x13A199B5}, {32533, 0x9DF13D3F}, {33385, 0x49DAF8C4},
      {32690, 0xBDEF7624}, {31455, 0xA4EEED33}, {32839, 0x379C9A0C}, {31860, 0x37B3D247}}},
    {"netlog", 1, 256, true, 534787,
     {{130981, 0x076F56BA}, {141269, 0xD1F3FF2D}, {134840, 0xA586A79A}, {127557, 0x1C444BE8}}},
};

TEST(ContainerArchiveVectors, BlockStreamsAreFrozen) {
  for (const ArchiveGolden& g : kArchiveGolden) {
    SCOPED_TRACE(std::string(g.corpus) + " level " + std::to_string(g.level) + " " +
                 std::to_string(g.block_kb) + " KiB" + (g.hw ? " hw" : " sw"));
    const auto data = wl::make_corpus(g.corpus, 1 << 20);
    container::BlockCodecConfig config;
    config.block_bytes = g.block_kb * 1024;
    core::MatchParams params;
    params.window_bits = 15;
    if (g.hw) {
      config.tokens = hw::HwConfig::speed_optimized().with_level(g.level);
    } else {
      config.tokens = params.with_level(g.level);
    }
    const auto archive = container::block_compress(data, config);
    EXPECT_LE(archive.size(), g.archive_bytes);

    const auto view = container::parse(archive, data.size());
    ASSERT_EQ(view.blocks.size(), g.blocks.size());
    for (std::size_t i = 0; i < view.blocks.size(); ++i) {
      const container::BlockView& block = view.blocks[i];
      EXPECT_EQ(block.method, container::Method::kDeflate) << "block " << i;
      EXPECT_EQ(block.comp.size(), g.blocks[i].size) << "block " << i;
      EXPECT_EQ(checksum::crc32(block.comp), g.blocks[i].crc) << "block " << i;
    }
  }
}

// The block writers' bytes on a synthetic stream that reaches every code:
// each literal 0-255, each length 3-258 and each distance band's first and
// last value, 1 through 32768, with length 258 at distance 32768 among them.
// Real compressor output (the vectors above) misses most of the extreme
// codes.
std::vector<core::Token> every_code_tokens() {
  rng::Xoshiro256 rng(18);
  std::vector<core::Token> tokens;
  std::vector<std::uint8_t> literals(256);
  for (unsigned i = 0; i < 256; ++i) literals[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = literals.size() - 1; i > 0; --i)
    std::swap(literals[i], literals[rng.next_below(i + 1)]);
  for (const std::uint8_t b : literals) tokens.push_back(core::Token::literal(b));
  // Grow the history past 32 KiB so that every distance is in reach.
  for (int i = 0; i < 128; ++i) tokens.push_back(core::Token::match(256, 258));

  std::vector<core::Token> matches;
  for (std::uint32_t len = 3; len <= 258; ++len)
    matches.push_back(
        core::Token::match(1 + static_cast<std::uint32_t>(rng.next_below(32768)), len));
  for (std::size_t i = 0; i < deflate::kDistBase.size(); ++i) {
    const std::uint32_t first = deflate::kDistBase[i];
    const std::uint32_t last = i + 1 < deflate::kDistBase.size() ? deflate::kDistBase[i + 1] - 1u
                                                                 : deflate::kMaxDistance;
    for (const std::uint32_t d : {first, last})
      matches.push_back(core::Token::match(d, 3 + static_cast<std::uint32_t>(rng.next_below(256))));
  }
  matches.push_back(core::Token::match(deflate::kMaxDistance, 258));
  for (std::size_t i = matches.size() - 1; i > 0; --i)
    std::swap(matches[i], matches[rng.next_below(i + 1)]);
  for (const core::Token& m : matches) {
    for (auto n = rng.next_below(4); n > 0; --n)
      tokens.push_back(core::Token::literal(rng.next_byte()));
    tokens.push_back(m);
  }
  return tokens;
}

TEST(EncoderVectors, EveryCodeStreamIsFrozen) {
  const auto tokens = every_code_tokens();
  const auto expected = core::decode_tokens(tokens);

  bits::BitWriter w;
  deflate::write_fixed_block(w, tokens, /*final_block=*/true);
  EXPECT_EQ(w.bit_count(), deflate::fixed_block_bits(tokens));
  const auto fixed = w.take();
  EXPECT_EQ(fixed.size(), 2132u);
  EXPECT_EQ(checksum::crc32(fixed), 0xBB35A6A3u);
  EXPECT_EQ(fixed, deflate::deflate_fixed(tokens));
  EXPECT_EQ(deflate::inflate_raw(fixed), expected);

  const auto dynamic = deflate::deflate_dynamic(tokens);
  EXPECT_EQ(dynamic.size(), 2005u);
  EXPECT_EQ(checksum::crc32(dynamic), 0x10EC6E6Au);
  EXPECT_EQ(deflate::inflate_raw(dynamic), expected);
}

// A block whose literal/length counts are the Fibonacci numbers F1..F20:
// the end-of-block code is F1, eight length-258 matches (symbol 285) are F6
// and 18 literals take the others. Each count is above the sum of all those
// two or more below it, so the unconstrained tree is a 19-deep chain, and the
// encoder takes the Kraft repair path that EveryCodeStreamIsFrozen never
// reaches. The matches' random distances give the distance tree 8 codes
// at most.
std::vector<core::Token> deep_tree_tokens() {
  rng::Xoshiro256 rng(20);
  constexpr unsigned kMatches = 8;
  std::vector<std::uint8_t> literals;
  std::uint64_t a = 1, b = 1;  // F1, F2
  for (unsigned k = 1; k <= 20; ++k) {
    if (k != 1 && k != 6) literals.insert(literals.end(), a, static_cast<std::uint8_t>(k * 11));
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (std::size_t i = literals.size() - 1; i > 0; --i)
    std::swap(literals[i], literals[rng.next_below(i + 1)]);

  std::vector<core::Token> tokens;
  std::uint32_t pos = 0;
  for (std::size_t i = 0; i < literals.size(); ++i) {
    tokens.push_back(core::Token::literal(literals[i]));
    ++pos;
    if (i % 1000 == 999 && i / 1000 < kMatches) {
      const auto dist = 1 + static_cast<std::uint32_t>(rng.next_below(pos));
      tokens.push_back(core::Token::match(dist, 258));
      pos += 258;
    }
  }
  return tokens;
}

TEST(EncoderVectors, DeepDynamicTreeIsFrozen) {
  const auto tokens = deep_tree_tokens();
  std::vector<std::uint64_t> lit_freq(deflate::kNumLitLenSymbols, 0);
  for (const core::Token& t : tokens)
    lit_freq[t.is_literal() ? t.literal_byte() : deflate::length_code(t.length()).symbol]++;
  lit_freq[deflate::kEndOfBlock] = 1;
  const auto unlimited = deflate::huffman_code_lengths(lit_freq, 30);
  ASSERT_EQ(*std::max_element(unlimited.begin(), unlimited.end()), 19);

  const auto dynamic = deflate::deflate_dynamic(tokens);
  EXPECT_EQ(dynamic.size(), 5847u);
  EXPECT_EQ(checksum::crc32(dynamic), 0x7EC24390u);
  EXPECT_EQ(deflate::inflate_raw(dynamic), core::decode_tokens(tokens));
}

}  // namespace
}  // namespace lzss
