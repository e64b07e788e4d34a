#include "hw/functional.hpp"

#include <algorithm>

#include "hw/compressor.hpp"
#include "lzss/simd_compare.hpp"

namespace lzss::hw {

std::vector<core::Token> compress_tokens(const HwConfig& config,
                                         std::span<const std::uint8_t> input, CycleStats* census) {
  if (census != nullptr) {
    auto result = Compressor(config).compress(input);
    *census = result.stats;
    return std::move(result.tokens);
  }
  config.validate();
  const std::uint64_t n = config.dict_size();
  const std::uint64_t n_mask = n - 1;
  const std::uint64_t pos_mask = config.position_modulus() - 1;
  const std::uint64_t max_dist = config.max_distance();
  const std::uint64_t size = input.size();
  const std::uint8_t* const in = input.data();

  // Head entries are positions mod 2^(dict_bits+G); 0 doubles as NIL, so a
  // position that is 0 mod 2^(dict_bits+G) is never found again. Next
  // entries hold the distance back to the previous chain member (< N, else 0).
  std::vector<std::uint32_t> head(config.hash.table_size(), 0);
  std::vector<std::uint16_t> next(n, 0);
  const auto age_of = [pos_mask](std::uint64_t now, std::uint32_t entry) -> std::uint64_t {
    return entry == 0 ? 0 : (now - entry) & pos_mask;
  };
  // Inserts position p; returns the age of the head entry it displaced.
  const auto insert = [&](std::uint64_t p) -> std::uint64_t {
    const std::uint32_t h = config.hash.hash3(in[p], in[p + 1], in[p + 2]);
    const std::uint64_t age = age_of(p, head[h]);
    head[h] = static_cast<std::uint32_t>(p & pos_mask);
    next[p & n_mask] = static_cast<std::uint16_t>(age < n ? age : 0);
    return age;
  };

  std::vector<core::Token> tokens;
  tokens.reserve(size / 3 + 1);
  std::uint64_t next_rotation = config.rotation_interval();
  std::uint64_t pos = 0;
  while (pos < size) {
    // Match search (MatchPrep + Matching). The filler always runs at least
    // min(262, remaining) bytes ahead here, so the candidate cap is
    // min(258, remaining) and the dictionary ring holds every byte compared.
    std::uint32_t best_len = 0;
    std::uint32_t best_dist = 0;
    const std::uint64_t remaining = size - pos;
    if (remaining >= core::kMinMatch) {
      const std::uint64_t age = insert(pos);
      if (age >= 1 && age <= max_dist) {
        const std::size_t cap = std::min<std::uint64_t>(core::kMaxMatch, remaining);
        std::uint64_t cand = pos - age;
        for (std::uint32_t chain_left = config.max_chain;;) {
          const std::uint32_t rel = next[cand & n_mask];
          // A candidate can only beat best_len if it agrees at that offset;
          // skipping the others changes no result, only the work.
          if (best_len < cap && in[cand + best_len] == in[pos + best_len]) {
            const auto len =
                static_cast<std::uint32_t>(core::simd::match_length(in + cand, in + pos, cap));
            if (len >= core::kMinMatch && len > best_len) {
              best_len = len;
              best_dist = static_cast<std::uint32_t>(pos - cand);
            }
          }
          if (best_len >= config.nice_length || --chain_left == 0 || rel == 0 ||
              pos - (cand - rel) > max_dist)
            break;
          cand -= rel;
        }
      }
    }

    // Output, then the post-advance decision: rotation (which drops pending
    // short-match insertions) or the HashUpdate pass.
    const std::uint64_t start = pos;
    if (best_len >= core::kMinMatch) {
      tokens.push_back(core::Token::match(best_dist, best_len));
      pos += best_len;
    } else {
      tokens.push_back(core::Token::literal(in[pos]));
      ++pos;
    }
    if (pos >= size) break;
    if (pos >= next_rotation) {
      for (std::uint32_t& e : head)
        if (age_of(pos, e) > max_dist) e = 0;
      next_rotation += config.rotation_interval();
    } else if (best_len >= core::kMinMatch && best_len <= config.max_insert) {
      for (std::uint64_t k = start + 1; k < pos && k + core::kMinMatch <= size; ++k)
        (void)insert(k);
    }
  }
  return tokens;
}

}  // namespace lzss::hw
