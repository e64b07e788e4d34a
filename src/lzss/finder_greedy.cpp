// LZ4-style greedy MatchFinder backend.
//
// One wide-hash table slot per 4-byte window, one candidate per position:
// the probe is a single load, and all verification/extension work is one
// simd::match_length() call — the design point of the LZ4 accelerator work
// (arXiv:2409.12433): spend nothing on search, let the wide comparer carry
// the throughput. Ratio trails the hash-chain backend (a 3-byte match at the
// block tail is invisible to a 4-byte hash, and hash collisions evict the
// only candidate), which is exactly the trade the bench sweep quantifies.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "lzss/match_finder.hpp"
#include "lzss/simd_compare.hpp"
#include "lzss/token.hpp"

namespace lzss::core {
namespace {

class GreedyFinder final : public MatchFinder {
 public:
  explicit GreedyFinder(const MatchParams& params) : params_(params) {
    bits_ = std::clamp(params_.hash.bits, 8u, 17u);
    table_.assign(std::size_t{1} << bits_, kEmpty);
  }

  void seed(std::span<const std::uint8_t> block) override {
    in_ = block;
    std::fill(table_.begin(), table_.end(), kEmpty);
    ++stats_.seeds;
  }

  std::uint64_t insert(std::uint64_t pos) override {
    assert(pos + kMinMatch <= in_.size());
    if (pos + sizeof(std::uint32_t) > in_.size()) return kNoCandidate;  // tail -> literals
    ++stats_.insertions;
    std::uint32_t& slot = table_[hash4(read32(pos))];
    const std::uint32_t cand = slot;
    slot = static_cast<std::uint32_t>(pos);
    if (cand == kEmpty || cand >= pos || pos - cand > params_.max_distance()) return kNoCandidate;
    return cand;
  }

  [[nodiscard]] MatchCandidate find_longest_match(std::uint64_t pos, std::uint64_t head,
                                                  std::uint32_t best_so_far) override {
    ++stats_.probes;
    const std::uint32_t max_len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kMaxMatch, in_.size() - pos));
    const std::uint32_t len = static_cast<std::uint32_t>(
        simd::match_length(in_.data() + head, in_.data() + pos, max_len));
    stats_.compare_bytes += std::min<std::uint32_t>(len + 1, max_len);
    if (len < kMinMatch || len <= best_so_far) return {};
    return {len, static_cast<std::uint32_t>(pos - head)};
  }

  void advance(std::uint64_t pos, std::uint32_t covered) override {
    // LZ4 idiom: index the position two bytes before the match end so
    // overlapping continuations stay discoverable without paying for every
    // skipped position.
    const std::uint64_t end = pos + covered;
    if (end >= 2) {
      const std::uint64_t k = end - 2;
      if (k > pos && k + sizeof(std::uint32_t) <= in_.size()) {
        ++stats_.insertions;
        table_[hash4(read32(k))] = static_cast<std::uint32_t>(k);
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t read32(std::uint64_t pos) const noexcept {
    std::uint32_t v;
    std::memcpy(&v, in_.data() + pos, sizeof(v));
    return v;
  }

  [[nodiscard]] std::uint32_t hash4(std::uint32_t v) const noexcept {
    return (v * 2654435761u) >> (32u - bits_);
  }

  MatchParams params_;
  unsigned bits_;
  std::span<const std::uint8_t> in_;
  std::vector<std::uint32_t> table_;  // wide hash -> most recent position
};

}  // namespace

std::unique_ptr<MatchFinder> make_greedy_finder(const MatchParams& params) {
  return std::make_unique<GreedyFinder>(params);
}

}  // namespace lzss::core
