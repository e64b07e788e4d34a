// Pluggable match-finder backends for the software compressor.
//
// The paper's profiling (and our live hw_state_cycles_total{state="matching"}
// census) shows match search dominates the compression hot path. This
// interface splits "find the longest match" from "emit tokens" so the search
// strategy can be swapped per request:
//
//   kHashChain    zlib-style head/prev chains with zlib's probe order, chain
//                 bounds and tired-searcher/nice cutoffs. Under the
//                 MatchFinderEncoder's fast and lazy parses it reproduces
//                 deflate_fast/deflate_slow, the paper's software baseline.
//   kGreedy       LZ4-style single-probe wide-hash table over 4-byte
//                 windows: one candidate per position, verified and
//                 extended by the SIMD comparer (arXiv:2409.12433).
//
// All backends verify/extend candidates through simd::match_length(), the
// software twin of the paper's wide-bus comparer.
//
// Contract (zlib's INSERT_STRING / longest_match split):
//   seed(block)                  binds the input block and resets all index
//                                state; must be called before the others.
//   insert(p)                    indexes position p and returns the head of
//                                its candidate list, kNoCandidate when no
//                                earlier position can match it. Requires
//                                p + kMinMatch <= block.size().
//   find_longest_match(p, h, b)  walks the candidates from head h, which
//                                insert(p) just returned, and returns the
//                                longest match strictly longer than b
//                                (length 0 = none).
//   advance(p, covered)          greedy parse only: the encoder consumed
//                                `covered` bytes at p as one match; the
//                                finder indexes the skipped positions per
//                                its policy. The lazy parse insert()s every
//                                covered position itself.
// Matches always point backwards within the seeded block (distance <= p and
// <= params.max_distance()), so any decoded prefix can resolve them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "lzss/params.hpp"

namespace lzss::core {

struct MatchCandidate {
  std::uint32_t length = 0;  ///< 0 = no acceptable match
  std::uint32_t distance = 0;
};

/// insert()'s "nothing to search" head (zlib's NIL).
inline constexpr std::uint64_t kNoCandidate = ~std::uint64_t{0};

/// Per-finder operation census, cumulative over the finder's lifetime;
/// feeds the matchfinder_* server metrics, the bench sweep and the PPC440
/// timing model (through EncodeStats).
struct FinderStats {
  std::uint64_t seeds = 0;          ///< blocks seeded
  std::uint64_t insertions = 0;     ///< positions indexed (one hash each)
  std::uint64_t probes = 0;         ///< candidate positions examined
  std::uint64_t compare_bytes = 0;  ///< bytes run through the comparer
};

/// Which data structure a traced memory reference touched.
enum class MemRegion : std::uint8_t {
  kWindow,  ///< input/window bytes (1-byte elements)
  kHead,    ///< hash head table (2-byte Pos entries, as in zlib)
  kPrev,    ///< prev chain table (2-byte Pos entries)
};

/// Observer for the hash-chain finder's memory reference stream; drives the
/// trace-based PPC440 cache model (swmodel/cache_sim.hpp).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// @param index element index within the region (not a byte address).
  virtual void on_access(MemRegion region, std::uint64_t index) = 0;
};

class MatchFinder {
 public:
  virtual ~MatchFinder() = default;

  virtual void seed(std::span<const std::uint8_t> block) = 0;
  virtual std::uint64_t insert(std::uint64_t pos) = 0;
  [[nodiscard]] virtual MatchCandidate find_longest_match(std::uint64_t pos, std::uint64_t head,
                                                          std::uint32_t best_so_far) = 0;
  virtual void advance(std::uint64_t pos, std::uint32_t covered) = 0;

  [[nodiscard]] const FinderStats& stats() const noexcept { return stats_; }

  /// Streams every head/prev/window reference to @p observer; nullptr
  /// (the default) disables tracing. Only the hash-chain finder, whose
  /// tables mirror zlib's, reports references.
  void set_access_observer(AccessObserver* observer) noexcept { observer_ = observer; }

 protected:
  void trace(MemRegion region, std::uint64_t index) {
    if (observer_ != nullptr) observer_->on_access(region, index);
  }

  FinderStats stats_{};
  AccessObserver* observer_ = nullptr;
};

[[nodiscard]] std::unique_ptr<MatchFinder> make_match_finder(MatchFinderKind kind,
                                                             const MatchParams& params);

}  // namespace lzss::core
