#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <span>
#include <string_view>
#include <vector>

#include "common/prng.hpp"

namespace lzss::checksum {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Reference values computed with the canonical public-domain algorithms.
TEST(Adler32, KnownVectors) {
  EXPECT_EQ(adler32(bytes("")), 0x00000001u);
  EXPECT_EQ(adler32(bytes("a")), 0x00620062u);
  EXPECT_EQ(adler32(bytes("abc")), 0x024d0127u);
  EXPECT_EQ(adler32(bytes("message digest")), 0x29750586u);
  EXPECT_EQ(adler32(bytes("Wikipedia")), 0x11E60398u);
}

TEST(Adler32, IncrementalMatchesOneShot) {
  rng::Xoshiro256 rng(3);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = rng.next_byte();

  Adler32 inc;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t chunk = 1 + rng.next_below(977);
    const std::size_t n = std::min(chunk, data.size() - i);
    inc.update({data.data() + i, n});
    i += n;
  }
  EXPECT_EQ(inc.value(), adler32(data));
}

TEST(Adler32, NmaxBoundary) {
  // 5552 bytes of 0xFF is the worst case before the modulo must run.
  std::vector<std::uint8_t> data(5552 * 3 + 17, 0xFF);
  Adler32 a;
  a.update(data);
  Adler32 b;
  for (const auto byte : data) b.update({&byte, 1});
  EXPECT_EQ(a.value(), b.value());
}

TEST(Adler32, CombineOfRandomSplitsMatchesTheWholeBuffer) {
  // Parts of 0 and 1 bytes, parts past NMAX (5552), and all-0xFF data, where
  // the sums grow fastest, all combine to the one-shot value.
  rng::Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(rng.next_below(40000));
    const bool saturated = trial % 4 == 0;
    for (auto& b : data) b = saturated ? 0xFF : rng.next_byte();
    std::uint32_t combined = adler32({});
    std::size_t begin = 0;
    while (begin < data.size()) {
      static constexpr std::size_t kShapes[] = {0, 1, 2, 5552, 5553, 12000};
      const std::size_t shape = kShapes[rng.next_below(std::size(kShapes))];
      const std::size_t len =
          std::min(data.size() - begin, shape == 12000 ? rng.next_below(3 * 5552) : shape);
      const std::span<const std::uint8_t> part(data.data() + begin, len);
      combined = adler32_combine(combined, adler32(part), len);
      begin += len;
    }
    ASSERT_EQ(combined, adler32(data)) << "trial " << trial << " size " << data.size();
  }
  // Combining with an empty part changes nothing, on either side.
  const std::uint32_t abc = adler32(bytes("abc"));
  EXPECT_EQ(adler32_combine(abc, adler32({}), 0), abc);
  EXPECT_EQ(adler32_combine(adler32({}), abc, 3), abc);
}

TEST(Adler32, ResetRestartsState) {
  Adler32 a;
  a.update(bytes("junk"));
  a.reset();
  a.update(bytes("abc"));
  EXPECT_EQ(a.value(), 0x024d0127u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  rng::Xoshiro256 rng(5);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = rng.next_byte();

  Crc32 inc;
  inc.update({data.data(), 1000});
  inc.update({data.data() + 1000, 3096});
  EXPECT_EQ(inc.value(), crc32(data));
}

// The bytewise definition the slicing-by-8 tables are derived from.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryAlignmentAndLength) {
  rng::Xoshiro256 rng(8);
  std::vector<std::uint8_t> buf(8 + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto data = std::span<const std::uint8_t>(buf).subspan(start, len);
      EXPECT_EQ(crc32(data), crc32_bitwise(data)) << start << "+" << len;
    }
  }
}

TEST(Crc32, IncrementalSplitsAtEveryOffset) {
  rng::Xoshiro256 rng(9);
  std::vector<std::uint8_t> data(150);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = crc32_bitwise(data);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 c;
    c.update(all.first(split));
    c.update(all.subspan(split));
    EXPECT_EQ(c.value(), whole) << split;
    // A three-way split that leaves the middle piece at every length 0..9.
    const std::size_t mid = std::min<std::size_t>(data.size() - split, split % 10);
    Crc32 t;
    t.update(all.first(split));
    t.update(all.subspan(split, mid));
    t.update(all.subspan(split + mid));
    EXPECT_EQ(t.value(), whole) << split;
  }
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> data(128, 0x55);
  const std::uint32_t before = crc32(data);
  data[64] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc32, ResetRestartsState) {
  Crc32 c;
  c.update(bytes("junk"));
  c.reset();
  c.update(bytes("abc"));
  EXPECT_EQ(c.value(), 0x352441C2u);
}

}  // namespace
}  // namespace lzss::checksum
