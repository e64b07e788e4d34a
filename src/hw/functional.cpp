#include "hw/functional.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "hw/compressor.hpp"
#include "lzss/simd_compare.hpp"

namespace lzss::hw {
namespace {

/// simd::match_length(a, b, cap), with the first 8 bytes compared inline:
/// most candidates differ within them, where the call's dispatch would cost
/// more than the compare.
std::uint32_t prefix_length(const std::uint8_t* a, const std::uint8_t* b, std::size_t cap) {
  if (cap < 8) return static_cast<std::uint32_t>(core::simd::match_length(a, b, cap));
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, a, 8);
  std::memcpy(&y, b, 8);
  // The first differing byte is the lowest one in memory order.
  const int bits = std::endian::native == std::endian::little ? std::countr_zero(x ^ y)
                                                              : std::countl_zero(x ^ y);
  if (bits < 64 || cap == 8) return static_cast<std::uint32_t>(bits / 8);
  return 8 + static_cast<std::uint32_t>(core::simd::match_length(a + 8, b + 8, cap - 8));
}

/// The twin with its head-entry width (uint16_t whenever positions fit in
/// 16 bits) and hash kind fixed at compile time.
template <typename Entry, core::HashKind Kind>
std::vector<core::Token> twin_tokens(const HwConfig& config, std::span<const std::uint8_t> input,
                                     std::size_t prefix) {
  const core::HashSpec hash{.bits = config.hash.bits, .kind = Kind};
  const std::uint32_t n_mask = config.dict_size() - 1;
  const auto pos_mask = static_cast<std::uint32_t>(config.position_modulus() - 1);
  const std::uint32_t max_dist = config.max_distance();
  const std::uint32_t max_chain = config.max_chain;
  const std::uint32_t nice_length = config.nice_length;
  const std::uint32_t max_insert = config.max_insert;
  const std::uint64_t rotation_interval = config.rotation_interval();
  const std::uint64_t size = input.size();
  const std::uint8_t* const in = input.data();

  // Head entries are positions mod 2^(dict_bits+G); 0 doubles as NIL, so a
  // position that is 0 mod 2^(dict_bits+G) is never found again. Next
  // entries hold the distance back to the previous chain member (< N, else 0).
  std::vector<Entry> head(hash.table_size(), 0);
  std::vector<std::uint16_t> next(std::size_t{n_mask} + 1, 0);
  // Inserts position p; returns the age of the head entry it displaced.
  const auto insert = [&](std::uint64_t p) -> std::uint32_t {
    Entry& slot = head[hash.hash3(in[p], in[p + 1], in[p + 2])];
    // A NIL slot reads as age 0. Masked rather than branched on: how often
    // a slot is empty follows the data, so a branch would mispredict.
    const std::uint32_t age =
        (static_cast<std::uint32_t>(p) - slot) & pos_mask & (0u - (slot != 0));
    slot = static_cast<Entry>(p & pos_mask);
    next[p & n_mask] = static_cast<std::uint16_t>(age <= n_mask ? age : 0);
    return age;
  };

  // The purge clears entries older than max_dist. While no age can wrap
  // (the whole input fits in the position space) those entries read as too
  // old anyway, and a next offset above max_dist ends a chain walk just as
  // 0 does, so the scan changes no token and is skipped. The rotation
  // itself still happens: it drops the short-match inserts of its match.
  const bool purge = size > config.position_modulus();

  // The preload: every prefix position with 3 bytes to hash goes into
  // head/next, and none gets a token. The prefix is at most one dictionary,
  // which ends before the first rotation.
  for (std::uint64_t k = 0; k < prefix && k + 2 < size; ++k) (void)insert(k);

  std::vector<core::Token> tokens;
  tokens.reserve((size - prefix) / 2 + 1);
  std::uint64_t next_rotation = rotation_interval;
  std::uint64_t pos = prefix;
  while (pos < size) {
    // Match search (MatchPrep + Matching). The filler always runs at least
    // min(262, remaining) bytes ahead here, so the candidate cap is
    // min(258, remaining) and the dictionary ring holds every byte compared.
    std::uint32_t best_len = 0;
    std::uint32_t best_dist = 0;
    const std::uint64_t remaining = size - pos;
    if (remaining >= core::kMinMatch) {
      const std::uint32_t age = insert(pos);
      if (age >= 1 && age <= max_dist) {
        const std::size_t cap = std::min<std::uint64_t>(core::kMaxMatch, remaining);
        std::uint64_t cand = pos - age;
        for (std::uint32_t chain_left = max_chain;;) {
          const std::uint32_t rel = next[cand & n_mask];
          // A candidate can only beat best_len if it agrees at that offset;
          // skipping the others changes no result, only the work.
          if (best_len < cap && in[cand + best_len] == in[pos + best_len]) {
            const std::uint32_t len = prefix_length(in + cand, in + pos, cap);
            if (len >= core::kMinMatch && len > best_len) {
              best_len = len;
              best_dist = static_cast<std::uint32_t>(pos - cand);
            }
          }
          if (best_len >= nice_length || --chain_left == 0 || rel == 0 ||
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
      if (purge) {
        // Branch-free, so that it vectorizes; a NIL entry stays 0 either way.
        const auto now = static_cast<std::uint32_t>(pos);
        for (Entry& e : head) e = ((now - e) & pos_mask) > max_dist ? Entry{0} : e;
      }
      next_rotation += rotation_interval;
    } else if (best_len >= core::kMinMatch && best_len <= max_insert) {
      // Positions from size - 2 on have no 3 bytes left to hash.
      const std::uint64_t end = std::min(pos, size - 2);
      for (std::uint64_t k = start + 1; k < end; ++k) (void)insert(k);
    }
  }
  return tokens;
}

template <typename Entry>
std::vector<core::Token> twin_tokens(const HwConfig& config, std::span<const std::uint8_t> input,
                                     std::size_t prefix) {
  switch (config.hash.kind) {
    case core::HashKind::kZlibShift:
      return twin_tokens<Entry, core::HashKind::kZlibShift>(config, input, prefix);
    case core::HashKind::kMultiplicative:
      return twin_tokens<Entry, core::HashKind::kMultiplicative>(config, input, prefix);
  }
  return {};  // unreachable
}

}  // namespace

std::vector<core::Token> compress_tokens(const HwConfig& config,
                                         std::span<const std::uint8_t> input, CycleStats* census,
                                         std::size_t prefix) {
  if (prefix > input.size())
    throw std::invalid_argument("compress_tokens: prefix longer than the input");
  // Only the last dictionary of the prefix fits the dictionary memory.
  const std::size_t clipped = std::min<std::size_t>(prefix, config.dict_size());
  input = input.subspan(prefix - clipped);
  if (census != nullptr) {
    auto result = Compressor(config).compress(input, clipped);
    *census = result.stats;
    return std::move(result.tokens);
  }
  config.validate();
  return config.position_bits() <= 16 ? twin_tokens<std::uint16_t>(config, input, clipped)
                                      : twin_tokens<std::uint32_t>(config, input, clipped);
}

}  // namespace lzss::hw
