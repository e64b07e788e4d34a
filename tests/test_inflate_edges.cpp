// Inflate edge cases around the dynamic-block header and block framing that
// the round-trip tests cannot reach (they only produce well-formed input).
#include <gtest/gtest.h>

#include "common/bitio.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/huffman.hpp"
#include "deflate/inflate.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

#include <algorithm>
#include <random>

namespace lzss::deflate {
namespace {

constexpr std::array<std::uint8_t, 19> kClcOrder{16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                 11, 4,  12, 3, 13, 2, 14, 1, 15};

// Builds a dynamic header with the given HLIT/HDIST whose code-length code
// assigns length 1 to symbols {0, 8} (so lengths can be written literally).
void write_header(bits::BitWriter& w, unsigned hlit, unsigned hdist) {
  w.put_bits(1, 1);
  w.put_bits(0b10, 2);
  w.put_bits(hlit - 257, 5);
  w.put_bits(hdist - 1, 4 + 1);
  w.put_bits(19 - 4, 4);  // HCLEN = 19
  for (std::size_t i = 0; i < 19; ++i) {
    const std::uint8_t sym = kClcOrder[i];
    w.put_bits((sym == 0 || sym == 8) ? 1 : 0, 3);
  }
}

TEST(InflateEdges, Hlit287Rejected) {
  // HLIT > 286 is invalid even before any lengths are read.
  bits::BitWriter w;
  write_header(w, 287, 1);
  const auto stream = w.take();
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(InflateEdges, RepeatBeforeAnyLengthRejected) {
  // CLC symbol 16 (copy previous) as the very first length symbol.
  bits::BitWriter w;
  w.put_bits(1, 1);
  w.put_bits(0b10, 2);
  w.put_bits(0, 5);   // HLIT = 257
  w.put_bits(0, 5);   // HDIST = 1
  w.put_bits(19 - 4, 4);
  for (std::size_t i = 0; i < 19; ++i) {
    const std::uint8_t sym = kClcOrder[i];
    w.put_bits((sym == 16 || sym == 0) ? 1 : 0, 3);
  }
  // Code for 16 is one of the two 1-bit codes; canonical order gives
  // symbol 0 -> code 0, symbol 16 -> code 1.
  w.put_huffman(1, 1);  // "repeat previous" with no previous
  w.put_bits(0, 2);     // repeat count field
  const auto stream = w.take();
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(InflateEdges, OversubscribedLitLenCodeRejected) {
  // Three literal symbols with code length 1 (over-subscribed Huffman code).
  bits::BitWriter w;
  write_header(w, 257, 1);
  // lengths: sym0=1, sym1=1, sym2=1, rest 0. CLC: '0'->len0 code 0? With
  // symbols {0,8} at length 1: canonical 0 -> code 0, 8 -> code 1.
  auto put_len = [&](unsigned len) { w.put_huffman(len == 8 ? 1 : 0, 1); };
  put_len(8);  // sym 0: length 8... use length 8? must over-subscribe at 1.
  // Simpler: emit three length-1 entries is impossible with this CLC (it
  // only encodes lengths 0 and 8); instead give 257 lit symbols length 8 —
  // 257 8-bit codes over-subscribe (max 256).
  for (int i = 0; i < 256; ++i) put_len(8);
  put_len(8);  // distance symbol: fine
  const auto stream = w.take();
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(InflateEdges, NonFinalChainTerminatesOnlyAtFinal) {
  // Three fixed blocks; only the last is BFINAL. inflate must consume all.
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto a = wl::make_corpus("wiki", 3000, 1);
  const auto b = wl::make_corpus("wiki", 3000, 2);
  const auto c = wl::make_corpus("wiki", 3000, 3);
  bits::BitWriter w;
  write_fixed_block(w, enc.encode(a), false);
  // Note: the software encoder resets per encode(), so each block's matches
  // stay within its own source — safe to concatenate.
  write_fixed_block(w, enc.encode(b), false);
  write_fixed_block(w, enc.encode(c), true);
  const auto out = inflate_raw(w.take());
  std::vector<std::uint8_t> joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  joined.insert(joined.end(), c.begin(), c.end());
  EXPECT_EQ(out, joined);
}

TEST(InflateEdges, MissingFinalBlockHitsEndOfData) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto a = wl::make_corpus("wiki", 2000);
  bits::BitWriter w;
  write_fixed_block(w, enc.encode(a), /*final_block=*/false);
  const auto stream = w.take();
  // The decoder keeps looking for the next block header and runs out:
  // a typed InflateError, not the bit reader's std::out_of_range.
  EXPECT_THROW((void)inflate_raw(stream), InflateError);
}

TEST(InflateEdges, StoredBlockOfZeroBytes) {
  bits::BitWriter w;
  write_stored_block(w, {}, true);
  EXPECT_TRUE(inflate_raw(w.take()).empty());
}

TEST(InflateEdges, MaximumLengthStoredBlock) {
  const auto payload = wl::make_corpus("random", 0xFFFF);
  bits::BitWriter w;
  write_stored_block(w, payload, true);
  EXPECT_EQ(inflate_raw(w.take()), payload);
}


// The table decoder runs a fast loop while a whole match fits under the cap
// and 8 input bytes remain, and a careful loop for the rest. These pin the
// copies, the sub-tables and both exits.

std::vector<std::uint8_t> inflated_into(std::span<const std::uint8_t> stream, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  out.resize(inflate_into(stream, out));
  return out;
}

TEST(InflateFastLoop, OverlappedCopiesOfEveryShortDistance) {
  for (std::uint32_t d = 1; d <= 20; ++d) {
    std::vector<core::Token> tokens;
    for (std::uint32_t i = 0; i < d; ++i)
      tokens.push_back(core::Token::literal(static_cast<std::uint8_t>('a' + i)));
    for (int k = 0; k < 6; ++k) tokens.push_back(core::Token::match(d, 258));
    tokens.push_back(core::Token::literal('!'));
    const auto expected = core::decode_tokens(tokens);
    for (const auto& stream : {deflate_fixed(tokens), deflate_dynamic(tokens)}) {
      EXPECT_EQ(inflate_raw(stream), expected) << "distance " << d;
      // An exact buffer: the last matches sit within 258 bytes of the cap.
      EXPECT_EQ(inflated_into(stream, expected.size()), expected) << "distance " << d;
    }
  }
}

TEST(InflateFastLoop, FifteenBitCodesResolveThroughSubTables) {
  // Literal k occurs 2^(k+1) times, more than everything rarer together,
  // so the Huffman tree is a chain: literal 0 and end-of-block get 15-bit
  // codes, past the 10-bit root table, in its sub-tables.
  std::vector<std::uint64_t> freqs(kNumLitLenSymbols, 0);
  std::vector<core::Token> tokens;
  for (unsigned sym = 0; sym < 15; ++sym) {
    freqs[sym] = std::uint64_t{2} << sym;
    tokens.insert(tokens.end(), freqs[sym], core::Token::literal(static_cast<std::uint8_t>(sym)));
  }
  freqs[kEndOfBlock] = 1;
  const auto lengths = huffman_code_lengths(freqs, 15);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), 15);

  std::mt19937 rng(17);
  std::shuffle(tokens.begin(), tokens.end(), rng);
  const auto expected = core::decode_tokens(tokens);
  const auto stream = deflate_dynamic(tokens);
  EXPECT_EQ(inflate_raw(stream), expected);
  EXPECT_EQ(inflated_into(stream, expected.size()), expected);
}

TEST(InflateFastLoop, EveryStreamLengthNearTheEndOfInput) {
  // Short streams never hold 8 spare input bytes, longer ones leave the
  // fast loop for their last symbols; each must decode, and losing any of
  // its last 8 bytes must fail typed.
  const auto data = wl::make_corpus("wiki", 600);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  for (std::size_t n = 0; n <= data.size(); n += 7) {
    const auto input = std::span(data).first(n);
    const auto tokens = enc.encode(input);
    for (const auto& stream : {deflate_fixed(tokens), deflate_dynamic(tokens)}) {
      ASSERT_EQ(inflate_raw(stream), std::vector<std::uint8_t>(input.begin(), input.end()));
      for (std::size_t cut = 1; cut <= std::min<std::size_t>(8, stream.size()); ++cut)
        EXPECT_THROW((void)inflate_raw(std::span(stream).first(stream.size() - cut)), InflateError)
            << n << " bytes, " << cut << " cut";
    }
  }
}

TEST(InflateFastLoop, CapOfExactlyTheOutputSucceedsAndOneLessThrows) {
  const auto text = wl::make_corpus("wiki", 20000);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  // A run of distance-1 matches ends the second case mid-copy at the cap.
  std::vector<core::Token> run{core::Token::literal('x')};
  run.insert(run.end(), 40, core::Token::match(1, 258));
  const auto run_bytes = core::decode_tokens(run);
  bits::BitWriter stored;
  write_stored_block(stored, std::span(text).first(3000), true);

  const std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> cases{
      {deflate_fixed(enc.encode(text)), text},
      {deflate_dynamic(enc.encode(text)), text},
      {deflate_fixed(run), run_bytes},
      {stored.take(), std::vector<std::uint8_t>(text.begin(), text.begin() + 3000)},
  };
  for (const auto& [stream, expected] : cases) {
    EXPECT_EQ(inflate_raw(stream, expected.size()), expected);
    EXPECT_THROW((void)inflate_raw(stream, expected.size() - 1), InflateBombError);
    EXPECT_EQ(inflated_into(stream, expected.size()), expected);
    std::vector<std::uint8_t> short_by_one(expected.size() - 1);
    EXPECT_THROW((void)inflate_into(stream, short_by_one), InflateBombError);
  }
}

TEST(InflateFastLoop, DistanceTooFarIsRejectedInBothLoops) {
  // The bad match first (fast loop: plenty of input after it) and last
  // (careful loop: the end of the input is near).
  std::vector<core::Token> lead(64, core::Token::literal('q'));
  std::vector<core::Token> early{core::Token::literal('a'), core::Token::match(2, 3)};
  early.insert(early.end(), lead.begin(), lead.end());
  std::vector<core::Token> late = lead;
  late.push_back(core::Token::match(65, 3));
  for (const auto& tokens : {early, late}) {
    EXPECT_THROW((void)inflate_raw(deflate_fixed(tokens)), InflateError);
    EXPECT_THROW((void)inflate_raw(deflate_dynamic(tokens)), InflateError);
  }
}

}  // namespace
}  // namespace lzss::deflate
