// Timing model of the paper's software baseline: zlib on the PowerPC-440
// hard core inside the XC5VFX70T, clocked at 400 MHz.
//
// We cannot run a PowerPC; instead the software encoder's operation census
// (hash computations, chain probes, compared bytes, emitted tokens — the
// same operations zlib's deflate executes) is priced with per-operation
// cycle costs representative of a PPC440 with 32 KB caches in front of DDR2.
// The costs were calibrated ONCE against the paper's Table I anchor
// (~2.5-3.3 MB/s for zlib level 1 on text) and are frozen; every experiment
// then uses the same frozen model, so relative comparisons remain honest.
#pragma once

#include <cstdint>

#include "lzss/mf_encoder.hpp"

namespace lzss::swm {

struct Ppc440Costs {
  double clock_mhz = 400.0;
  // Per-operation cycle prices (averages including cache effects).
  double per_byte = 70.0;       ///< stream handling, window upkeep, Huffman emit
  double per_hash = 26.0;       ///< INSERT_STRING: hash + head/prev update
  double per_probe = 52.0;      ///< chain walk step: dependent load, likely cache miss
  double per_compare_byte = 7.5;///< match loop byte compare
  double per_token = 44.0;      ///< tally + code emission bookkeeping
};

struct SwTiming {
  double cycles = 0.0;
  double seconds = 0.0;
  double mb_per_s = 0.0;  ///< MB = 10^6 bytes
};

/// Prices one encode run. @p bytes is the input size the stats describe.
[[nodiscard]] SwTiming price(const core::EncodeStats& stats, std::uint64_t bytes,
                             const Ppc440Costs& costs = {});

}  // namespace lzss::swm
