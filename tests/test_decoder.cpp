#include "lzss/decoder.hpp"

#include <gtest/gtest.h>

namespace lzss::core {
namespace {

TEST(Decoder, LiteralsOnly) {
  const std::vector<Token> tokens{Token::literal('h'), Token::literal('i')};
  const auto out = decode_tokens(tokens);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{'h', 'i'}));
}

TEST(Decoder, SimpleMatchCopiesHistory) {
  std::vector<Token> tokens;
  for (const char c : std::string("snowy ")) tokens.push_back(Token::literal(c));
  tokens.push_back(Token::match(6, 4));
  const auto out = decode_tokens(tokens);
  EXPECT_EQ(std::string(out.begin(), out.end()), "snowy snow");
}

TEST(Decoder, OverlappingMatchReplicates) {
  std::vector<Token> tokens{Token::literal('a'), Token::match(1, 5)};
  const auto out = decode_tokens(tokens);
  EXPECT_EQ(std::string(out.begin(), out.end()), "aaaaaa");
}

TEST(Decoder, OverlappingPairPattern) {
  std::vector<Token> tokens{Token::literal('a'), Token::literal('b'), Token::match(2, 6)};
  const auto out = decode_tokens(tokens);
  EXPECT_EQ(std::string(out.begin(), out.end()), "abababab");
}

TEST(Decoder, DistanceBeyondHistoryThrows) {
  const std::vector<Token> tokens{Token::literal('x'), Token::match(2, 3)};
  EXPECT_THROW((void)decode_tokens(tokens), DecodeError);
}

TEST(Decoder, DistanceAtExactHistoryBoundaryWorks) {
  std::vector<Token> tokens{Token::literal('x'), Token::literal('y'), Token::literal('z'),
                            Token::match(3, 3)};
  const auto out = decode_tokens(tokens);
  EXPECT_EQ(std::string(out.begin(), out.end()), "xyzxyz");
}

TEST(Decoder, WindowLimitEnforcedWhenDeclared)
{
  std::vector<Token> tokens;
  for (int i = 0; i < 600; ++i) tokens.push_back(Token::literal(static_cast<std::uint8_t>(i)));
  tokens.push_back(Token::match(600, 3));
  EXPECT_NO_THROW((void)decode_tokens(tokens));                 // unlimited window
  EXPECT_THROW((void)decode_tokens(tokens, 512), DecodeError);  // declared 512B window
}

TEST(Decoder, MaxOutputStopsAtTheFirstTokenPastIt) {
  // One literal then a 258-byte run: 259 bytes fit a 259-byte bound exactly;
  // a byte less and the match throws before it writes anything.
  const std::vector<Token> run{Token::literal('a'), Token::match(1, 258)};
  EXPECT_EQ(decode_tokens(run, 0, 259).size(), 259u);
  EXPECT_THROW((void)decode_tokens(run, 0, 258), DecodeError);
  EXPECT_THROW((void)decode_tokens(run, 0, 1), DecodeError);
  const std::vector<Token> literals{Token::literal('o'), Token::literal('k')};
  EXPECT_EQ(decode_tokens(literals, 0, 2).size(), 2u);
  EXPECT_THROW((void)decode_tokens(literals, 0, 1), DecodeError);
}

TEST(Decoder, EmptyTokenStream) {
  EXPECT_TRUE(decode_tokens({}).empty());
}

TEST(Decoder, TokensReproduceHelper) {
  const std::vector<Token> tokens{Token::literal('o'), Token::literal('k')};
  const std::vector<std::uint8_t> expected{'o', 'k'};
  EXPECT_TRUE(tokens_reproduce(tokens, expected));
  const std::vector<std::uint8_t> wrong{'k', 'o'};
  EXPECT_FALSE(tokens_reproduce(tokens, wrong));
  const std::vector<std::uint8_t> shorter{'o'};
  EXPECT_FALSE(tokens_reproduce(tokens, shorter));
}

}  // namespace
}  // namespace lzss::core
