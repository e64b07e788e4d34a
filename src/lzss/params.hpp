// Match-finder parameters and zlib-equivalent compression levels.
//
// The paper takes "the minimum ZLib compression level as a reference point"
// and explores raising the matching-iteration limit (fig. 4: ~20 % better
// compression for ~82 % lower speed). We mirror zlib's configuration table so
// "min level" and "max level" mean exactly what they meant to the authors.
#pragma once

#include <cstdint>
#include <string>

#include "lzss/hash.hpp"

namespace lzss::core {

/// Match-search strategy, as in zlib.
enum class Strategy : std::uint8_t {
  kFast,  ///< deflate_fast: greedy, no lazy evaluation (levels 1..3)
  kSlow,  ///< deflate_slow: lazy matching (levels 4..9)
};

/// Which MatchFinder backend drives the software compressor
/// (lzss/match_finder.hpp; trade-offs in docs/MATCHFINDER.md).
enum class MatchFinderKind : std::uint8_t {
  kHashChain = 0,  ///< zlib-style head/prev chains (the software baseline)
  kGreedy = 1,     ///< LZ4-style single-probe wide-hash table
};

[[nodiscard]] constexpr const char* finder_name(MatchFinderKind kind) noexcept {
  switch (kind) {
    case MatchFinderKind::kHashChain: return "hashchain";
    case MatchFinderKind::kGreedy: return "greedy";
  }
  return "?";
}

struct MatchParams {
  unsigned window_bits = 12;  ///< dictionary is 2^window_bits bytes (4 KB default)
  HashSpec hash{};            ///< hash table spec (bits default 15)

  // zlib configuration_table knobs.
  std::uint32_t good_length = 4;   ///< reduce chain effort above this match length
  std::uint32_t max_lazy = 4;      ///< deflate_fast: max_insert_length; slow: lazy threshold
  std::uint32_t nice_length = 8;   ///< stop searching when a match this long is found
  std::uint32_t max_chain = 4;     ///< matching iteration limit (chain walk bound)
  Strategy strategy = Strategy::kFast;  ///< MatchFinderEncoder parse
  MatchFinderKind finder = MatchFinderKind::kHashChain;  ///< MatchFinderEncoder backend

  [[nodiscard]] constexpr std::uint32_t window_size() const noexcept {
    return 1u << window_bits;
  }
  /// Largest encodable distance: the D field has window_bits bits and 0 is
  /// reserved for literals, so a full-window distance cannot be represented.
  [[nodiscard]] constexpr std::uint32_t max_distance() const noexcept {
    return window_size() - 1;
  }

  /// zlib level 1..9 preset (window/hash preserved from *this).
  [[nodiscard]] MatchParams with_level(int level) const;

  /// The paper's headline speed configuration: 4 KB dictionary, 15-bit hash,
  /// minimum compression level.
  [[nodiscard]] static MatchParams speed_optimized();

  [[nodiscard]] std::string describe() const;
};

/// Minimum / maximum compression level identifiers used by fig. 4.
inline constexpr int kMinLevel = 1;
inline constexpr int kMaxLevel = 9;

}  // namespace lzss::core
