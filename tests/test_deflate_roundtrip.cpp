#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/checksum.hpp"
#include "common/prng.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::deflate {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(FixedBlock, EmptyTokenStream) {
  const auto stream = deflate_fixed({});
  const auto out = inflate_raw(stream);
  EXPECT_TRUE(out.empty());
}

TEST(FixedBlock, LiteralsAndMatches) {
  std::vector<core::Token> tokens;
  for (const char c : std::string("snowy ")) tokens.push_back(core::Token::literal(c));
  tokens.push_back(core::Token::match(6, 4));
  const auto stream = deflate_fixed(tokens);
  const auto out = inflate_raw(stream);
  EXPECT_EQ(std::string(out.begin(), out.end()), "snowy snow");
}

TEST(FixedBlock, SizePredictionIsExact) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 50000);
  const auto tokens = enc.encode(data);
  const auto stream = deflate_fixed(tokens);
  EXPECT_EQ(stream.size(), (fixed_block_bits(tokens) + 7) / 8);
}

TEST(FixedBlock, TokenBitCosts) {
  // Literal 'A' (65 < 144) costs 8 bits; literal 200 costs 9.
  EXPECT_EQ(fixed_token_bits(core::Token::literal(65)), 8u);
  EXPECT_EQ(fixed_token_bits(core::Token::literal(200)), 9u);
  // Match len 3 (sym 257, 7 bits, 0 extra) dist 1 (5 bits, 0 extra) = 12.
  EXPECT_EQ(fixed_token_bits(core::Token::match(1, 3)), 12u);
  // Match len 258 (sym 285, 8 bits) dist 32768 (5 + 13 extra) = 26.
  EXPECT_EQ(fixed_token_bits(core::Token::match(32768, 258)), 26u);
}

TEST(FixedBlock, DistanceBeyond32KiBThrowsTyped) {
  // A 64 KiB dictionary reaches distances Deflate cannot carry; the writers
  // must refuse them instead of masking the extra bits into a wrong stream.
  std::vector<core::Token> tokens(40000, core::Token::literal('a'));
  tokens.push_back(core::Token::match(32769, 3));
  bits::BitWriter w;
  EXPECT_THROW(write_fixed_block(w, tokens, true), EncodeError);
  EXPECT_THROW((void)deflate_dynamic(tokens), EncodeError);
  tokens.back() = core::Token::match(kMaxDistance, 3);
  const auto out = inflate_raw(deflate_fixed(tokens));
  EXPECT_EQ(out, std::vector<std::uint8_t>(40003, 'a'));
  EXPECT_EQ(inflate_raw(deflate_dynamic(tokens)), out);
}

TEST(StoredBlock, Roundtrip) {
  const auto payload = wl::make_corpus("random", 1000);
  bits::BitWriter w;
  write_stored_block(w, payload, true);
  const auto stream = w.take();
  EXPECT_EQ(inflate_raw(stream), payload);
}

TEST(StoredBlock, RejectsOversizedPayload) {
  const std::vector<std::uint8_t> big(70000, 0);
  bits::BitWriter w;
  EXPECT_THROW(write_stored_block(w, big, true), std::invalid_argument);
}

TEST(MultiBlock, MixedBlockTypesConcatenate) {
  const auto a = bytes("stored block first; ");
  std::vector<core::Token> tokens;
  for (const char c : std::string("then fixed fixed ")) {
    tokens.push_back(core::Token::literal(static_cast<std::uint8_t>(c)));
  }
  bits::BitWriter w;
  write_stored_block(w, a, false);
  write_fixed_block(w, tokens, false);
  write_dynamic_block(w, tokens, true);
  const auto out = inflate_raw(w.take());
  EXPECT_EQ(std::string(out.begin(), out.end()),
            "stored block first; then fixed fixed then fixed fixed ");
}

TEST(MultiBlock, FixedBlocksChainAtOddOffsetsThenStored) {
  // The word-wise writer appends at any bit offset: two fixed blocks that
  // each end mid-byte, then a stored block that aligns mid-stream.
  std::vector<core::Token> first{core::Token::literal(200), core::Token::literal('a'),
                                 core::Token::literal('b'), core::Token::literal('c')};
  std::vector<core::Token> second{core::Token::literal('a'), core::Token::literal('b'),
                                  core::Token::literal('c'), core::Token::match(3, 6)};
  const auto stored = bytes("stored tail");
  bits::BitWriter w;
  write_fixed_block(w, first, false);
  EXPECT_EQ(w.bit_count(), 43u);  // 3 header + 9 + 3 * 8 + 7 end-of-block
  write_fixed_block(w, second, false);
  EXPECT_EQ(w.bit_count(), 89u);  // + 3 + 3 * 8 + 7 + 5 + 7
  write_stored_block(w, stored, true);
  std::vector<std::uint8_t> want{200, 'a', 'b', 'c'};
  const auto tail = bytes("abcabcabcstored tail");
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(inflate_raw(w.take()), want);
}

TEST(MultiBlock, EncodeErrorLeavesTheStreamWhereItWas) {
  // A distance Deflate cannot carry throws from either writer before the
  // block writes a bit, so the stream so far stays usable.
  const std::vector<core::Token> lead{core::Token::literal(200), core::Token::literal('x')};
  std::vector<core::Token> bad(300, core::Token::literal('y'));
  bad.push_back(core::Token::match(32769, 3));
  bits::BitWriter w;
  write_fixed_block(w, lead, false);
  const std::size_t at = w.bit_count();
  ASSERT_NE(at % 8, 0u);
  EXPECT_THROW(write_fixed_block(w, bad, false), EncodeError);
  EXPECT_EQ(w.bit_count(), at);
  EXPECT_THROW(write_dynamic_block(w, bad, false), EncodeError);
  EXPECT_EQ(w.bit_count(), at);
  write_fixed_block(w, lead, true);
  EXPECT_EQ(inflate_raw(w.take()), (std::vector<std::uint8_t>{200, 'x', 200, 'x'}));
}

TEST(FixedBlock, AllLiteralReserveIsChunkBounded) {
  // The writer makes room per chunk of tokens, not for a whole block's worst
  // case: 4 MiB of literals must not reserve 48 bits a token (24 MiB).
  rng::Xoshiro256 rng(3);
  std::vector<core::Token> tokens;
  tokens.reserve(4 << 20);
  for (std::size_t i = 0; i < (4u << 20); ++i)
    tokens.push_back(core::Token::literal(rng.next_byte()));
  bits::BitWriter w;
  write_fixed_block(w, tokens, true);
  const std::size_t final_bytes = (w.bit_count() + 7) / 8;
  EXPECT_LE(w.buffer_bytes(), final_bytes + bits::BitWriter::kPackChunk * kMaxTokenBits / 8 + 16);
  const auto stream = w.take();
  EXPECT_EQ(stream.size(), final_bytes);
  EXPECT_EQ(inflate_raw(stream).size(), tokens.size());
}

TEST(DynamicBlock, RoundtripOnText) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 80000);
  const auto tokens = enc.encode(data);
  const auto stream = deflate_dynamic(tokens);
  EXPECT_EQ(inflate_raw(stream), data);
}

TEST(DynamicBlock, BeatsFixedOnSkewedData) {
  // CAN logs have a very skewed byte distribution; the dynamic table must
  // produce a smaller stream than the fixed one.
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("x2e", 200000);
  const auto tokens = enc.encode(data);
  EXPECT_LT(deflate_dynamic(tokens).size(), deflate_fixed(tokens).size());
}

TEST(DynamicBlock, LiteralOnlyStream) {
  std::vector<core::Token> tokens;
  for (const char c : std::string("abcabcabc")) {
    tokens.push_back(core::Token::literal(static_cast<std::uint8_t>(c)));
  }
  EXPECT_EQ(inflate_raw(deflate_dynamic(tokens)), bytes("abcabcabc"));
}

TEST(DynamicBlock, SingleDistinctLiteral) {
  std::vector<core::Token> tokens(40, core::Token::literal('z'));
  EXPECT_EQ(inflate_raw(deflate_dynamic(tokens)), std::vector<std::uint8_t>(40, 'z'));
}

TEST(ZlibContainer, RoundtripWithChecksum) {
  const auto data = wl::make_corpus("wiki", 60000);
  core::MatchParams p;
  const auto z = zlib_compress(data, p.with_level(1));
  EXPECT_EQ(zlib_decompress(z), data);
}

TEST(ZlibContainer, EmptyInputRoundTrips) {
  for (const int level : {1, 9}) {
    for (const BlockKind kind : {BlockKind::kFixed, BlockKind::kDynamic}) {
      const auto z = zlib_compress({}, core::MatchParams{}.with_level(level), kind);
      EXPECT_TRUE(zlib_decompress(z).empty()) << "level " << level;
    }
  }
}

TEST(ZlibContainer, FarDistancesRoundTrip) {
  // Random bytes repeated once: every match reaches back 30 KiB, near the
  // top of Deflate's 32 KiB window.
  const auto half = wl::make_corpus("random", 30 * 1024);
  std::vector<std::uint8_t> data = half;
  data.insert(data.end(), half.begin(), half.end());
  core::MatchParams p;
  p.window_bits = 15;
  p = p.with_level(9);
  core::MatchFinderEncoder enc(p);
  const auto tokens = enc.encode(data);
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [&](const core::Token& t) {
    return !t.is_literal() && t.distance() == half.size();
  }));
  EXPECT_EQ(zlib_decompress(zlib_compress(data, p)), data);
}

TEST(ZlibContainer, HeaderFields) {
  const auto data = bytes("hello world hello world");
  core::MatchParams p;
  p.window_bits = 12;
  const auto z = zlib_compress(data, p);
  EXPECT_EQ(z[0] & 0x0F, 8);             // CM = deflate
  EXPECT_EQ((z[0] >> 4) & 0x0F, 12 - 8); // CINFO = log2(window) - 8
  EXPECT_EQ((static_cast<unsigned>(z[0]) * 256 + z[1]) % 31, 0u);  // FCHECK
}

TEST(ZlibContainer, CorruptedChecksumRejected) {
  const auto data = bytes("check me");
  auto z = zlib_compress(data, core::MatchParams::speed_optimized());
  z.back() ^= 0xFF;
  EXPECT_THROW((void)zlib_decompress(z), InflateError);
}

TEST(ZlibContainer, BadFcheckRejected) {
  auto z = zlib_compress(bytes("x"), core::MatchParams::speed_optimized());
  z[1] ^= 0x01;
  EXPECT_THROW((void)zlib_decompress(z), InflateError);
}

TEST(ZlibContainer, TruncatedStreamRejected) {
  const std::vector<std::uint8_t> tiny{0x78, 0x9C};
  EXPECT_THROW((void)zlib_decompress(tiny), InflateError);
}

TEST(GzipContainer, RoundtripWithCrcAndSize) {
  const auto data = wl::make_corpus("x2e", 40000);
  const auto g = gzip_compress(data, core::MatchParams::speed_optimized());
  EXPECT_EQ(g[0], 0x1F);
  EXPECT_EQ(g[1], 0x8B);
  EXPECT_EQ(gzip_decompress(g), data);
}

TEST(GzipContainer, CorruptedCrcRejected) {
  auto g = gzip_compress(bytes("payload payload"), core::MatchParams::speed_optimized());
  g[g.size() - 6] ^= 0x01;  // inside CRC32
  EXPECT_THROW((void)gzip_decompress(g), InflateError);
}

TEST(GzipContainer, BadMagicRejected) {
  auto g = gzip_compress(bytes("y"), core::MatchParams::speed_optimized());
  g[0] = 0x50;
  EXPECT_THROW((void)gzip_decompress(g), InflateError);
}

TEST(Inflate, ReservedBlockTypeRejected) {
  bits::BitWriter w;
  w.put_bits(1, 1);
  w.put_bits(0b11, 2);  // reserved BTYPE
  const auto stream = w.take();
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(Inflate, StoredLenNlenMismatchRejected) {
  bits::BitWriter w;
  w.put_bits(1, 1);
  w.put_bits(0b00, 2);
  w.align_to_byte();
  w.put_aligned_byte(5);
  w.put_aligned_byte(0);
  w.put_aligned_byte(0x12);  // wrong NLEN
  w.put_aligned_byte(0x34);
  const auto stream = w.take();
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(Inflate, DistanceTooFarRejected) {
  // A fixed block whose first token is a match cannot reference history.
  std::vector<core::Token> tokens{core::Token::match(4, 3)};
  const auto stream = deflate_fixed(tokens);
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

// --- Property sweep over corpora and block kinds ---------------------------

using Param = std::tuple<std::string, BlockKind, int>;

class ContainerRoundtrip : public ::testing::TestWithParam<Param> {};

TEST_P(ContainerRoundtrip, ZlibAndGzip) {
  const auto& [corpus, kind, level] = GetParam();
  const auto data = wl::make_corpus(corpus, 64 * 1024);
  core::MatchParams p;
  const auto z = zlib_compress(data, p.with_level(level), kind);
  EXPECT_EQ(zlib_decompress(z), data);
  const auto g = gzip_compress(data, p.with_level(level), kind);
  EXPECT_EQ(gzip_decompress(g), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContainerRoundtrip,
    ::testing::Combine(::testing::Values("wiki", "x2e", "random", "zeros", "mixed"),
                       ::testing::Values(BlockKind::kFixed, BlockKind::kDynamic),
                       ::testing::Values(1, 9)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == BlockKind::kFixed ? "_fixed" : "_dynamic") + "_level" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace lzss::deflate
