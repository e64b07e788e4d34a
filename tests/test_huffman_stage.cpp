#include "hw/huffman_stage.hpp"

#include <gtest/gtest.h>

#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::hw {
namespace {

/// Drives a token list through the stage with an always-ready sink; returns
/// the emitted byte stream (padding trimmed to deflate_byte_count).
std::vector<std::uint8_t> run_stage(const std::vector<core::Token>& tokens,
                                    std::uint64_t* cycles_out = nullptr) {
  stream::Channel<core::Token> in(2);
  stream::Channel<std::uint32_t> out(2);
  HuffmanStage stage(in, out);
  stage.start();

  std::vector<std::uint8_t> bytes;
  std::size_t fed = 0;
  std::uint64_t cycles = 0;
  bool finished_signalled = false;
  while (true) {
    if (fed < tokens.size() && in.can_push()) in.push(tokens[fed++]);
    if (fed == tokens.size() && in.empty() && !finished_signalled) {
      stage.finish();
      finished_signalled = true;
    }
    stage.tick();
    while (out.can_pop()) {
      const std::uint32_t w = out.pop();
      for (int s = 0; s <= 24; s += 8) bytes.push_back(static_cast<std::uint8_t>(w >> s));
    }
    in.tick();
    out.tick();
    ++cycles;
    if (finished_signalled && stage.flushed() && out.empty()) break;
    if (cycles > 100 * tokens.size() + 10000) {
      ADD_FAILURE() << "stage wedged";
      break;
    }
  }
  bytes.resize(stage.deflate_byte_count());
  if (cycles_out != nullptr) *cycles_out = cycles;
  return bytes;
}

TEST(HuffmanStage, EmptyStreamIsValidDeflate) {
  const auto stream = run_stage({});
  EXPECT_TRUE(deflate::inflate_raw(stream).empty());
}

TEST(HuffmanStage, MatchesOfflineEncoderBitExactly) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 50000);
  const auto tokens = enc.encode(data);
  const auto offline = deflate::deflate_fixed(tokens);
  const auto staged = run_stage(tokens);
  EXPECT_EQ(staged, offline);
}

TEST(HuffmanStage, OutputInflatesToOriginal) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("x2e", 30000);
  const auto tokens = enc.encode(data);
  EXPECT_EQ(deflate::inflate_raw(run_stage(tokens)), data);
}

TEST(HuffmanStage, SustainsOneTokenPerCycle) {
  // "the encoder does not introduce any delays": with a ready sink, N tokens
  // must drain in roughly N cycles (plus constant flush overhead).
  std::vector<core::Token> tokens(5000, core::Token::literal('e'));
  std::uint64_t cycles = 0;
  (void)run_stage(tokens, &cycles);
  EXPECT_LT(cycles, tokens.size() + 64);
}

TEST(HuffmanStage, CountsTokensAndBits) {
  std::vector<core::Token> tokens{core::Token::literal('a'), core::Token::match(1, 3)};
  stream::Channel<core::Token> in(4);
  stream::Channel<std::uint32_t> out(64);
  HuffmanStage stage(in, out);
  stage.start();
  in.push(tokens[0]);
  in.tick();
  stage.tick();
  in.tick();
  out.tick();
  in.push(tokens[1]);
  in.tick();
  stage.tick();
  EXPECT_EQ(stage.tokens_encoded(), 2u);
  // header 3 + literal 'a' 8 + match(1,3): 7 (len sym) + 5 (dist sym) = 23.
  EXPECT_EQ(stage.bits_emitted(), 23u);
}

TEST(HuffmanStage, BackpressurePropagatesWithoutLoss) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 20000);
  const auto tokens = enc.encode(data);

  stream::Channel<core::Token> in(2);
  stream::Channel<std::uint32_t> out(1);
  HuffmanStage stage(in, out);
  stage.start();

  std::vector<std::uint8_t> bytes;
  std::size_t fed = 0;
  std::uint64_t cycle = 0;
  bool finished = false;
  while (true) {
    if (fed < tokens.size() && in.can_push()) in.push(tokens[fed++]);
    if (fed == tokens.size() && in.empty() && !finished) {
      stage.finish();
      finished = true;
    }
    stage.tick();
    // Sink drains only every 3rd cycle -> sustained backpressure.
    if (cycle % 3 == 0 && out.can_pop()) {
      const std::uint32_t w = out.pop();
      for (int s = 0; s <= 24; s += 8) bytes.push_back(static_cast<std::uint8_t>(w >> s));
    }
    in.tick();
    out.tick();
    ++cycle;
    if (finished && stage.flushed() && out.empty()) break;
    ASSERT_LT(cycle, 10'000'000u);
  }
  while (!out.empty()) {
    const std::uint32_t w = out.pop();
    for (int s = 0; s <= 24; s += 8) bytes.push_back(static_cast<std::uint8_t>(w >> s));
    out.tick();
  }
  bytes.resize(stage.deflate_byte_count());
  EXPECT_GT(stage.stall_cycles(), 0u);
  EXPECT_EQ(deflate::inflate_raw(bytes), data);
}

}  // namespace
}  // namespace lzss::hw
