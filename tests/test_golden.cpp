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
#include "hw/compressor.hpp"
#include "hw/functional.hpp"
#include "lzss/sw_encoder.hpp"
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

}  // namespace
}  // namespace lzss
