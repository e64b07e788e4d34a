#include "lzss/mf_encoder.hpp"

#include <algorithm>
#include <stdexcept>

namespace lzss::core {
namespace {

// zlib's TOO_FAR: a minimal match this distant is not worth taking.
constexpr std::uint32_t kTooFar = 4096;

}  // namespace

MatchFinderEncoder::MatchFinderEncoder(MatchParams params)
    : params_(params), finder_(make_match_finder(params.finder, params)) {}

std::vector<Token> MatchFinderEncoder::encode(std::span<const std::uint8_t> input,
                                              std::size_t prefix) {
  if (prefix > input.size())
    throw std::invalid_argument("MatchFinderEncoder::encode: prefix longer than the input");
  // No match reaches further back than max_distance(), so the window starts
  // there: the prefix is clipped as deflateSetDictionary clips a dictionary.
  const std::size_t clip = prefix - std::min<std::size_t>(prefix, params_.max_distance());
  input = input.subspan(clip);
  prefix -= clip;

  const FinderStats before = finder_->stats();
  stats_ = EncodeStats{};
  finder_->seed(input);
  for (std::uint64_t k = 0; k < prefix && k + kMinMatch <= input.size(); ++k) finder_->insert(k);
  std::vector<Token> out;
  out.reserve((input.size() - prefix) / 3 + 16);
  if (params_.strategy == Strategy::kFast) {
    parse_fast(input, prefix, out);
  } else {
    parse_slow(input, prefix, out);
  }
  const FinderStats& after = finder_->stats();
  stats_.insertions = after.insertions - before.insertions;
  stats_.hash_computations = stats_.insertions;  // one hash per insertion
  stats_.chain_probes = after.probes - before.probes;
  stats_.compare_bytes = after.compare_bytes - before.compare_bytes;
  return out;
}

void MatchFinderEncoder::parse_fast(std::span<const std::uint8_t> in, std::uint64_t pos,
                                    std::vector<Token>& out) {
  while (pos < in.size()) {
    MatchCandidate m{};
    if (pos + kMinMatch <= in.size()) {
      const std::uint64_t head = finder_->insert(pos);
      if (head != kNoCandidate) m = finder_->find_longest_match(pos, head, kMinMatch - 1);
    }
    if (m.length >= kMinMatch) {
      out.push_back(Token::match(m.distance, m.length));
      ++stats_.matches;
      stats_.match_bytes += m.length;
      finder_->advance(pos, m.length);
      pos += m.length;
    } else {
      out.push_back(Token::literal(in[pos]));
      ++stats_.literals;
      ++pos;
    }
  }
}

void MatchFinderEncoder::parse_slow(std::span<const std::uint8_t> in, std::uint64_t pos,
                                    std::vector<Token>& out) {
  bool match_available = false;  // a literal at pos-1 is pending
  MatchCandidate prev_match{};   // match found at pos-1

  while (pos < in.size()) {
    MatchCandidate cur{};
    std::uint64_t head = kNoCandidate;
    if (pos + kMinMatch <= in.size()) head = finder_->insert(pos);

    // Past max_lazy the match at pos-1 is good enough: index, don't search.
    if (head != kNoCandidate && prev_match.length < params_.max_lazy) {
      if (prev_match.length >= kMinMatch) ++stats_.lazy_retries;
      cur = finder_->find_longest_match(pos, head, std::max(prev_match.length, kMinMatch - 1));
      // zlib: drop a minimal match that is too far away to be worth 2 extra bits.
      if (cur.length == kMinMatch && cur.distance > kTooFar) cur = {};
    }

    if (prev_match.length >= kMinMatch && cur.length <= prev_match.length) {
      // The match at pos-1 wins; emit it and skip over it.
      out.push_back(Token::match(prev_match.distance, prev_match.length));
      ++stats_.matches;
      stats_.match_bytes += prev_match.length;
      // Insert the covered positions pos+1 .. stop-1 (zlib's insert loop);
      // position stop is inserted at the top of the next iteration.
      const std::uint64_t stop = pos - 1 + prev_match.length;
      for (std::uint64_t k = pos + 1; k < stop && k + kMinMatch <= in.size(); ++k) {
        finder_->insert(k);
      }
      pos = stop;
      prev_match = {};
      match_available = false;
    } else if (match_available) {
      out.push_back(Token::literal(in[pos - 1]));
      ++stats_.literals;
      prev_match = cur;
      ++pos;
    } else {
      match_available = true;
      prev_match = cur;
      ++pos;
    }
  }
  if (match_available) {
    out.push_back(Token::literal(in[in.size() - 1]));
    ++stats_.literals;
  }
}

}  // namespace lzss::core
