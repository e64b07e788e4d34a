// MatchFinderEncoder — the software LZ parser.
//
// The one token emitter over any MatchFinder backend, following
// params.strategy: Strategy::kFast is zlib's deflate_fast (greedy),
// Strategy::kSlow is deflate_slow (lazy matching, levels 4-9). Over the
// kHashChain backend this is the paper's software baseline ("ZLib running
// on the PowerPC processor inside the FPGA"): the same D/L token stream the
// hardware produces, plus an operation census (hash computations, chain
// probes, compared bytes, ...) that drives the PPC440 timing model used for
// Table I. Backend and comparer choices are where throughput changes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lzss/match_finder.hpp"
#include "lzss/token.hpp"

namespace lzss::core {

/// Operation census of one encode run; inputs to the SW timing model.
struct EncodeStats {
  std::uint64_t hash_computations = 0;  ///< 3-byte hash evaluations
  std::uint64_t insertions = 0;         ///< head/prev chain insertions
  std::uint64_t chain_probes = 0;       ///< candidate positions visited
  std::uint64_t compare_bytes = 0;      ///< bytes compared during matching
  std::uint64_t literals = 0;           ///< literal tokens emitted
  std::uint64_t matches = 0;            ///< match tokens emitted
  std::uint64_t match_bytes = 0;        ///< input bytes covered by matches
  std::uint64_t lazy_retries = 0;       ///< slow path: matches re-evaluated at +1

  [[nodiscard]] std::uint64_t tokens() const noexcept { return literals + matches; }
};

class MatchFinderEncoder {
 public:
  /// Backend selected by @p params.finder, parse by @p params.strategy.
  explicit MatchFinderEncoder(MatchParams params);

  /// Compresses @p input into a token stream. Resets stats() first.
  ///
  /// A nonzero @p prefix primes the finder the way zlib's
  /// deflateSetDictionary does: the first @p prefix bytes of @p input are
  /// the bytes just before the data to compress, and only the rest gets
  /// tokens. The finder is seeded with the input from the last
  /// max_distance() bytes of the prefix on, and each of those positions that
  /// has 3 bytes to hash is inserted, so matches may reach back into the
  /// prefix, never beyond max_distance(). The census counts those
  /// insertions. A prefix longer than @p input throws std::invalid_argument.
  [[nodiscard]] std::vector<Token> encode(std::span<const std::uint8_t> input,
                                          std::size_t prefix = 0);

  [[nodiscard]] MatchFinderKind kind() const noexcept { return params_.finder; }
  /// Census of the last encode().
  [[nodiscard]] const EncodeStats& stats() const noexcept { return stats_; }
  /// The finder's census, cumulative over this encoder's lifetime.
  [[nodiscard]] const FinderStats& finder_stats() const noexcept { return finder_->stats(); }
  [[nodiscard]] const MatchParams& params() const noexcept { return params_; }

  /// Streams the finder's head/prev/window references to @p observer during
  /// encode(); pass nullptr to disable (default — near-zero overhead).
  void set_access_observer(AccessObserver* observer) noexcept {
    finder_->set_access_observer(observer);
  }

 private:
  void parse_fast(std::span<const std::uint8_t> in, std::uint64_t pos, std::vector<Token>& out);
  void parse_slow(std::span<const std::uint8_t> in, std::uint64_t pos, std::vector<Token>& out);

  MatchParams params_;
  std::unique_ptr<MatchFinder> finder_;
  EncodeStats stats_;
};

}  // namespace lzss::core
