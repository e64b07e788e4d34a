#include "lzss/match_finder.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "lzss/simd_compare.hpp"
#include "lzss/token.hpp"

namespace lzss::core {

std::unique_ptr<MatchFinder> make_greedy_finder(const MatchParams& params);

namespace {

// zlib's head/prev hash chains: INSERT_STRING and longest_match, with the
// same probe order, chain bounds and tired-searcher/nice cutoffs, so the
// MatchFinderEncoder's parses over it emit zlib's token stream and census.
// Only the inner byte compare is routed through the SIMD comparer.
class HashChainFinder final : public MatchFinder {
 public:
  explicit HashChainFinder(const MatchParams& params)
      : params_(params), wmask_(params.window_size() - 1) {
    head_.assign(params_.hash.table_size(), kNoCandidate);
    prev_.assign(params_.window_size(), kNoCandidate);
  }

  void seed(std::span<const std::uint8_t> block) override {
    in_ = block;
    std::fill(head_.begin(), head_.end(), kNoCandidate);
    std::fill(prev_.begin(), prev_.end(), kNoCandidate);
    ++stats_.seeds;
  }

  std::uint64_t insert(std::uint64_t pos) override {
    assert(pos + kMinMatch <= in_.size());
    const std::uint32_t h = params_.hash.hash3(in_[pos], in_[pos + 1], in_[pos + 2]);
    ++stats_.insertions;
    trace(MemRegion::kWindow, pos);  // the 3 hashed bytes share a line
    trace(MemRegion::kHead, h);      // read-modify-write of head[h]
    trace(MemRegion::kPrev, pos & wmask_);
    const std::uint64_t prior = head_[h];
    prev_[pos & wmask_] = prior;
    head_[h] = pos;
    return prior;
  }

  [[nodiscard]] MatchCandidate find_longest_match(std::uint64_t pos, std::uint64_t head,
                                                  std::uint32_t best_so_far) override {
    const std::uint32_t max_len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kMaxMatch, in_.size() - pos));
    if (max_len < kMinMatch) return {};

    std::uint32_t chain_left = params_.max_chain;
    if (best_so_far >= params_.good_length) chain_left >>= 2;  // zlib: tired searcher
    const std::uint32_t nice = std::min<std::uint32_t>(params_.nice_length, max_len);
    // Candidates closer than this are unreachable: distance must be encodable.
    const std::uint64_t limit =
        pos > params_.max_distance() ? pos - params_.max_distance() : 0;

    MatchCandidate best{};
    std::uint32_t best_len = std::max(best_so_far, kMinMatch - 1);
    std::uint64_t cur = head;

    while (cur != kNoCandidate && cur >= limit && cur < pos && chain_left-- > 0) {
      ++stats_.probes;
      const std::uint32_t len = static_cast<std::uint32_t>(
          simd::match_length(in_.data() + cur, in_.data() + pos, max_len));
      const std::uint32_t compared = std::min<std::uint32_t>(len + 1, max_len);
      stats_.compare_bytes += compared;
      if (observer_ != nullptr) {
        // Both compare operands touch memory; sample at line granularity
        // rather than per byte (the inner loop streams within a line).
        for (std::uint32_t off = 0; off < compared; off += 32) {
          trace(MemRegion::kWindow, cur + off);
          trace(MemRegion::kWindow, pos + off);
        }
      }
      if (len > best_len) {
        best_len = len;
        best = {len, static_cast<std::uint32_t>(pos - cur)};
        if (len >= nice) break;
      }
      trace(MemRegion::kPrev, cur & wmask_);
      const std::uint64_t prior = prev_[cur & wmask_];
      if (prior != kNoCandidate && prior >= cur) break;  // entry overwritten by a newer position
      cur = prior;
    }
    return best;
  }

  void advance(std::uint64_t pos, std::uint32_t covered) override {
    // deflate_fast: index covered positions only for short matches
    // (max_insert_length == max_lazy in fast mode).
    if (covered > params_.max_lazy) return;
    for (std::uint64_t k = pos + 1; k < pos + covered && k + kMinMatch <= in_.size(); ++k) {
      insert(k);
    }
  }

 private:
  MatchParams params_;
  std::uint64_t wmask_;
  std::span<const std::uint8_t> in_;
  std::vector<std::uint64_t> head_;  // hash -> most recent position
  std::vector<std::uint64_t> prev_;  // pos & wmask_ -> previous position in its chain
};

}  // namespace

std::unique_ptr<MatchFinder> make_match_finder(MatchFinderKind kind, const MatchParams& params) {
  switch (kind) {
    case MatchFinderKind::kHashChain:
      return std::make_unique<HashChainFinder>(params);
    case MatchFinderKind::kGreedy:
      return make_greedy_finder(params);
  }
  return std::make_unique<HashChainFinder>(params);
}

}  // namespace lzss::core
