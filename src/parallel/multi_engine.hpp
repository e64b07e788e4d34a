// Multi-engine parallel compression.
//
// The paper's introduction sells FPGAs on "massive algorithmic parallelism",
// and its conclusion leaves scaling beyond one unit as future work: a single
// compressor uses ~6 % of the XC5VFX70T's logic and a fraction of its BRAM,
// so several units fit comfortably. This module models a bank of E
// independent compressor units (on the host they run as blocks of the
// container scheduler, one thread per core), each fed a contiguous stripe of
// the input, whose token streams are
// stitched into one multi-block Deflate stream. Since every Deflate block
// only references its own stripe's history, the concatenation is a valid
// stream any inflater accepts.
//
// The trade-off this exposes is real: stripes reset the dictionary, so
// aggregate throughput scales ~linearly with E while the compression ratio
// dips slightly for small stripes — measured by bench/ext_multi_engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/compressor.hpp"
#include "hw/config.hpp"

namespace lzss::par {

struct MultiEngineReport {
  std::vector<hw::CycleStats> engines;   ///< per-unit cycle census
  unsigned requested_engines = 0;        ///< what the caller asked for
  unsigned effective_engines = 0;        ///< after the stripe>=dictionary clamp
                                         ///< (== engines.size())
  std::uint64_t parallel_cycles = 0;     ///< slowest unit (wall-clock on chip)
  std::uint64_t serial_cycles = 0;       ///< sum over units (single-unit time)
  std::size_t input_bytes = 0;
  std::size_t compressed_bytes = 0;      ///< multi-block Deflate payload size
  std::vector<std::uint8_t> deflate_stream;

  /// Aggregate on-chip throughput in MB/s (MB = 10^6 bytes): all units run
  /// in the same clock domain, so wall-clock time on chip is
  /// parallel_cycles / (clock_mhz * 10^6 cycles/s), and
  ///   bytes * (clock_mhz * 10^6) / parallel_cycles  [bytes/s]
  /// divided by 10^6 bytes/MB cancels to exactly this expression. The unit
  /// is pinned by test_multi_engine (AggregateThroughputUnitsAreMbPerS) so
  /// the bench table labels cannot silently drift.
  [[nodiscard]] double aggregate_mb_per_s(double clock_mhz) const noexcept {
    return parallel_cycles == 0 ? 0.0
                                : static_cast<double>(input_bytes) * clock_mhz /
                                      static_cast<double>(parallel_cycles);
  }
  [[nodiscard]] double speedup_over_single_unit() const noexcept {
    return parallel_cycles == 0 ? 0.0
                                : static_cast<double>(serial_cycles) /
                                      static_cast<double>(parallel_cycles);
  }
  [[nodiscard]] double ratio() const noexcept {
    return compressed_bytes == 0 ? 0.0
                                 : static_cast<double>(input_bytes) /
                                       static_cast<double>(compressed_bytes);
  }
};

/// Compresses @p data on @p num_engines model instances (container::run_local
/// runs them concurrently; results are deterministic regardless of
/// scheduling because the stripes are independent).
[[nodiscard]] MultiEngineReport compress_multi_engine(const hw::HwConfig& config,
                                                      std::span<const std::uint8_t> data,
                                                      unsigned num_engines);

}  // namespace lzss::par
