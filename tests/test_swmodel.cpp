#include "swmodel/ppc440_model.hpp"

#include <gtest/gtest.h>

#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::swm {
namespace {

core::EncodeStats stats_for(const std::string& corpus, int level, std::size_t bytes) {
  core::MatchParams p;
  p.window_bits = 12;
  p.hash.bits = 15;
  core::MatchFinderEncoder enc(p.with_level(level));
  const auto data = wl::make_corpus(corpus, bytes);
  (void)enc.encode(data);
  return enc.stats();
}

TEST(Ppc440, CalibrationAnchorForTableOne) {
  // zlib level 1 on text at 400 MHz: the paper's speedup of 15-20x over a
  // ~50 MB/s compressor puts the software baseline at roughly 2.5-3.3 MB/s.
  const std::size_t n = 512 * 1024;
  const auto st = stats_for("wiki", 1, n);
  const auto t = price(st, n);
  EXPECT_GT(t.mb_per_s, 2.2);
  EXPECT_LT(t.mb_per_s, 3.8);
}

TEST(Ppc440, HigherLevelIsSlower) {
  const std::size_t n = 256 * 1024;
  const auto t1 = price(stats_for("wiki", 1, n), n);
  const auto t9 = price(stats_for("wiki", 9, n), n);
  EXPECT_LT(t9.mb_per_s, t1.mb_per_s);
}

TEST(Ppc440, MoreWorkMeansMoreCycles) {
  core::EncodeStats small{};
  small.hash_computations = 10;
  core::EncodeStats large = small;
  large.chain_probes = 1000;
  large.compare_bytes = 5000;
  EXPECT_GT(price(large, 1000).cycles, price(small, 1000).cycles);
}

TEST(Ppc440, ScalesLinearlyWithInput) {
  const auto sa = stats_for("wiki", 1, 128 * 1024);
  const auto sb = stats_for("wiki", 1, 512 * 1024);
  const auto ta = price(sa, 128 * 1024);
  const auto tb = price(sb, 512 * 1024);
  EXPECT_NEAR(tb.mb_per_s / ta.mb_per_s, 1.0, 0.15);
}

TEST(Ppc440, CustomClockScalesThroughput) {
  const auto st = stats_for("wiki", 1, 128 * 1024);
  Ppc440Costs half;
  half.clock_mhz = 200.0;
  const auto t400 = price(st, 128 * 1024);
  const auto t200 = price(st, 128 * 1024, half);
  EXPECT_NEAR(t400.mb_per_s / t200.mb_per_s, 2.0, 1e-6);
}

TEST(Ppc440, ZeroBytesZeroTime) {
  const auto t = price(core::EncodeStats{}, 0);
  EXPECT_EQ(t.cycles, 0.0);
  EXPECT_EQ(t.mb_per_s, 0.0);
}

}  // namespace
}  // namespace lzss::swm
