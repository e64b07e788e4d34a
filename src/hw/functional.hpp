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
// The model stays the reference (tests/test_hw_twin.cpp pins the two
// token-identical) and the source of the cycle census; the twin is what
// serves the hw backend (docs/MATCHFINDER.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/config.hpp"
#include "lzss/token.hpp"

namespace lzss::hw {

/// The token stream Compressor(@p config).compress(@p input).tokens would
/// produce, computed without simulating cycles. Throws std::invalid_argument
/// on an invalid @p config, like the model's constructor.
[[nodiscard]] std::vector<core::Token> compress_tokens(const HwConfig& config,
                                                       std::span<const std::uint8_t> input);

}  // namespace lzss::hw
