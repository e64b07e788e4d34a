// Untimed functional twin of the cycle-accurate compressor.
//
// hw::Compressor steps the paper's architecture one clock at a time, which
// costs about 2 simulated cycles and ~100 ns of host time per input byte.
// compress_tokens() produces the same token stream with the clock taken
// out: the same modular head entries with generation bits (entry 0 is NIL),
// the same relative next offsets, the same fill-ahead-trimmed distance
// limit, chain bound, nice-length exit, short-match insertion policy and
// head purge schedule. Hash prefetch, bus width, head split and BRAM port
// timing only move cycle counts, so they have no counterpart here.
//
// The twin does less work than the model wherever no token can tell:
// while the input fits in the 2^(dict_bits+G) position space no age can
// wrap, so it skips the purge's scan of the head table (the rotation itself
// still happens, and still drops the short-match inserts of its match);
// head entries are 16 bits wide whenever positions fit in 16 bits; the loop
// is compiled once per hash kind; and each candidate's first 8 bytes are
// compared inline, with simd::match_length taking over past them.
//
// The model stays the reference (tests/test_hw_twin.cpp pins the two
// token-identical) and the source of the cycle census; the twin is what
// serves the hw backend (docs/MATCHFINDER.md). compress_tokens is the one
// way to ask for either: pass a census to run the model and receive its
// cycle accounting, or none for the twin. Both can be primed with the bytes
// before a part (a dictionary preload), which is how the parts of one hw
// COMPRESS keep one stream's ratio (docs/MATCHFINDER.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/config.hpp"
#include "hw/cycle_stats.hpp"
#include "lzss/token.hpp"

namespace lzss::hw {

/// The token stream Compressor(@p config).compress(@p input).tokens would
/// produce. With a null @p census it is computed without simulating cycles;
/// otherwise the model itself runs and its stats land in *@p census, which
/// is written only when the run completes. Throws std::invalid_argument on
/// an invalid @p config, like the model's constructor.
///
/// A nonzero @p prefix primes the engine: the first @p prefix bytes of
/// @p input are the bytes just before the part to compress, and only the
/// rest gets tokens. The last dict_size() of them (the prefix is clipped to
/// what the dictionary memory holds) are preloaded, their positions
/// inserted into head/next as the model's Compressor::compress(input,
/// prefix) does, so the part's matches may reach back into them, never
/// beyond max_distance(). A prefix longer than @p input throws
/// std::invalid_argument.
[[nodiscard]] std::vector<core::Token> compress_tokens(const HwConfig& config,
                                                       std::span<const std::uint8_t> input,
                                                       CycleStats* census = nullptr,
                                                       std::size_t prefix = 0);

}  // namespace lzss::hw
