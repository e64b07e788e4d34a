// Cycle-accurate model of the FPGA LZSS compressor (the paper's section IV).
//
// One step() call is one 100 MHz clock cycle. Within a cycle:
//   * the background filling logic may write one 32-bit word into the
//     lookahead ring and the dictionary ring (port B of each) and record
//     hash-cache entries for the bytes whose 3-byte window completed;
//   * the main FSM performs one state's worth of work: WaitData, MatchPrep,
//     Matching (one comparer iteration: 1..4 bytes on the first cycle of a
//     candidate, bus-width bytes afterwards, with the next-table read
//     overlapped), Output (one D/L pair, stalling on sink backpressure),
//     HashUpdate (one chain insertion per cycle for short matches) or
//     Rotate (head-table purge pass, M sub-memories in parallel) or, before
//     a primed part's first token, Preload (one prefix insertion per cycle);
//   * every memory's ports are re-armed.
//
// Functional data (the actual bytes and chain contents) is held in shadow
// ring buffers; the DualPortRam instances carry the architecturally
// significant state (head/next entries with generation-bit truncation) and
// enforce the one-access-per-port-per-cycle discipline that makes the
// design's parallelism claims checkable.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bram/dual_port_ram.hpp"
#include "hw/config.hpp"
#include "hw/cycle_stats.hpp"
#include "lzss/token.hpp"
#include "stream/channel.hpp"
#include "stream/word_packer.hpp"

namespace lzss::hw {

/// Result of a one-shot compression run.
struct CompressResult {
  std::vector<core::Token> tokens;
  CycleStats stats;
};

class Compressor {
 public:
  explicit Compressor(HwConfig config);

  /// One-shot: feeds @p input, runs the clock until the FSM drains, returns
  /// the token stream and the cycle census. No sink backpressure. With a
  /// nonzero @p prefix the first @p prefix bytes are a dictionary preload
  /// (see set_input) and get no tokens.
  [[nodiscard]] CompressResult compress(std::span<const std::uint8_t> input,
                                        std::size_t prefix = 0);

  /// Word-interface variant matching the paper's input port: "the compressor
  /// consumes 32-bit words (LSBF/MSBF format can be selected)". @p byte_count
  /// trims the final word's padding lanes.
  [[nodiscard]] CompressResult compress_words(std::span<const std::uint32_t> words,
                                              std::size_t byte_count, stream::ByteOrder order);

  // --- streaming / pipeline interface ------------------------------------
  /// Restarts the machine (clears rings, tables, statistics).
  void reset();
  /// Provides the input buffer. The span must stay alive until done().
  ///
  /// A nonzero @p prefix (at most dict_size() and the input's length, else
  /// std::invalid_argument) primes the engine with the bytes before a part:
  /// the Preload state inserts each of the first @p prefix positions that
  /// has 3 bytes to hash into head/next at one HashUpdate cycle (`updating`,
  /// counted in `preloaded` too) while the filler streams them into the
  /// rings at its beat; a cycle spent waiting for the filler counts as
  /// `fetching`. Tokens start at position @p prefix, and `bytes_in` counts
  /// only those bytes. An empty part skips the preload.
  void set_input(std::span<const std::uint8_t> input, std::size_t prefix = 0);
  /// Routes tokens into @p channel instead of the internal vector; the
  /// Output state stalls while the channel is full.
  void set_output_channel(stream::Channel<core::Token>* channel) { out_channel_ = channel; }
  /// Advances one clock cycle.
  void step();
  [[nodiscard]] bool done() const noexcept { return state_ == State::kDone; }

  [[nodiscard]] const CycleStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const HwConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<core::Token>& tokens() const noexcept { return tokens_; }

  /// Per-cycle snapshot of the architectural registers, for tracing and
  /// debugging (see hw/trace.hpp for the VCD dumper built on it).
  struct DebugView {
    const char* state_name;
    unsigned state_code;  ///< stable encoding, 0..7
    std::uint64_t pos;
    std::uint64_t fill_pos;
    std::uint64_t occupancy;
    std::uint32_t best_len;
    std::uint32_t chain_left;
    std::uint32_t cand_len;
  };
  [[nodiscard]] DebugView debug_view() const noexcept;

  /// The five independently addressable memories, for tests and reports.
  [[nodiscard]] const bram::DualPortRam& lookahead_ram() const noexcept { return *lookahead_; }
  [[nodiscard]] const bram::DualPortRam& dictionary_ram() const noexcept { return *dict_; }
  [[nodiscard]] const bram::DualPortRam& hash_cache_ram() const noexcept { return *hash_cache_; }
  [[nodiscard]] const bram::DualPortRam& head_ram() const noexcept { return *head_; }
  [[nodiscard]] const bram::DualPortRam& next_ram() const noexcept { return *next_; }

 private:
  enum class State : std::uint8_t {
    kWaitData,
    kMatchPrep,
    kMatching,
    kOutput,
    kHashUpdate,
    kRotate,
    kDone,
    kPreload,  ///< dictionary preload of a primed part (after kDone: codes stay stable)
  };

  void filler_step();
  void fsm_step();
  void tick_memories();

  void enter_prep_or_wait_after_advance(std::uint32_t advance);
  void start_rotation();
  void emit(const core::Token& t);

  [[nodiscard]] std::uint64_t occupancy() const noexcept { return fill_pos_ - pos_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept { return in_.size() - pos_; }
  [[nodiscard]] std::uint64_t wait_threshold() const noexcept {
    return std::min<std::uint64_t>(262, remaining());
  }
  [[nodiscard]] std::uint8_t stream_byte(std::uint64_t p) const noexcept {
    return la_ring_[p & la_mask_];
  }
  /// Reconstructs the age of a modular head/next entry; 0 means invalid/NIL.
  [[nodiscard]] std::uint64_t entry_age(std::uint64_t now, std::uint32_t entry) const noexcept {
    if (entry == 0) return 0;
    return (now - entry) & pos_mask_;
  }
  [[nodiscard]] std::uint32_t hash_at(std::uint64_t p) const noexcept {
    return hash_shadow_[p & la_mask_];
  }
  /// Inserts position @p p into head/next (one port op on each memory).
  void chain_insert(std::uint64_t p, std::uint32_t h);
  /// Begins comparing a new candidate; returns false if none is viable.
  void begin_candidate(std::uint64_t cand_abs);
  void purge_head();

  HwConfig cfg_;
  // Derived constants.
  std::uint64_t n_ = 0;         // dictionary size
  std::uint64_t n_mask_ = 0;    // n-1
  std::uint64_t la_mask_ = 0;   // lookahead-1
  std::uint64_t pos_mask_ = 0;  // 2^(dict_bits+G) - 1
  std::uint32_t max_dist_ = 0;
  std::uint32_t fill_ahead_ = 0;

  // Memories (architectural state + port accounting).
  std::unique_ptr<bram::DualPortRam> lookahead_, dict_, hash_cache_, head_, next_;
  // Shadow data (functional contents of the byte rings / hash cache).
  std::vector<std::uint8_t> la_ring_, dict_ring_;
  std::vector<std::uint32_t> hash_shadow_;

  // Input.
  std::vector<std::uint8_t> word_input_;  // backing store for compress_words
  std::span<const std::uint8_t> in_;
  std::uint64_t fill_pos_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t preload_end_ = 0;  // first position that gets a token

  // FSM registers.
  State state_ = State::kWaitData;
  std::uint32_t cur_hash_ = 0;
  bool prefetch_valid_ = false;

  // Matching registers.
  std::uint64_t cand_ = 0;         // absolute position of the candidate string
  std::uint32_t cand_len_ = 0;     // bytes matched so far for this candidate
  std::uint32_t cand_max_ = 0;     // cap for this candidate
  bool cand_first_cycle_ = false;  // alignment-limited first comparer iteration
  std::uint64_t succ_ = 0;         // next candidate (from the overlapped read)
  bool succ_valid_ = false;
  std::uint32_t chain_left_ = 0;
  std::uint32_t best_len_ = 0;
  std::uint32_t best_dist_ = 0;

  // Hash update registers.
  std::uint64_t ins_pos_ = 0;
  std::uint64_t ins_end_ = 0;

  // Rotation.
  std::uint64_t next_rotation_ = 0;
  std::uint64_t rotate_left_ = 0;

  // Output.
  stream::Channel<core::Token>* out_channel_ = nullptr;
  std::vector<core::Token> tokens_;

  CycleStats stats_;
};

}  // namespace lzss::hw
