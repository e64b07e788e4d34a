// Design-point evaluation — the core of the paper's estimation tool.
//
// "The tool consists of a flexible cycle-accurate C++ model and a C# front
// end. The C++ model accepts various design parameters (e.g. window size),
// compresses reference data blocks and produces various cycle-accurate
// statistics." evaluate() is exactly that: one configuration, one data
// block, full report (BRAM amount, compression ratio, clock cycle usage).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "fpga/resource_model.hpp"
#include "hw/compressor.hpp"
#include "hw/config.hpp"

namespace lzss::est {

struct Evaluation {
  hw::HwConfig config;
  hw::CycleStats stats;
  fpga::ResourceReport resources;
  std::uint64_t input_bytes = 0;
  std::uint64_t compressed_bytes = 0;  ///< fixed-Huffman Deflate payload

  [[nodiscard]] double ratio() const noexcept {
    return compressed_bytes == 0 ? 0.0
                                 : static_cast<double>(input_bytes) /
                                       static_cast<double>(compressed_bytes);
  }
  [[nodiscard]] double cycles_per_byte() const noexcept { return stats.cycles_per_byte(); }
  [[nodiscard]] double mb_per_s() const noexcept { return stats.mb_per_s(config.clock_mhz); }
  /// Output size scaled to what a @p reference_bytes input would produce —
  /// lets a small sample stand in for the paper's 100 MB runs.
  [[nodiscard]] double scaled_compressed_mb(std::uint64_t reference_bytes) const noexcept {
    return input_bytes == 0 ? 0.0
                            : static_cast<double>(compressed_bytes) *
                                  static_cast<double>(reference_bytes) /
                                  static_cast<double>(input_bytes) / 1e6;
  }
};

/// Runs the cycle-accurate model over @p data and assembles the report.
/// When @p verify is true (default) the token stream is checked against the
/// input byte-for-byte; a mismatch throws.
[[nodiscard]] Evaluation evaluate(const hw::HwConfig& config, std::span<const std::uint8_t> data,
                                  bool verify = true);

}  // namespace lzss::est
