// Per-state cycle accounting of the hardware model.
//
// The categories are exactly the ones in the paper's fig. 5 ("Time spent on
// different operations"): waiting for data, finding match, producing output,
// updating hash table, rotating hash, fetching data.
#pragma once

#include <cstdint>
#include <string>

namespace lzss::hw {

struct CycleStats {
  // Cycle counters per FSM activity (they sum to total_cycles).
  std::uint64_t waiting = 0;    ///< WaitData state (head read not overlapped)
  std::uint64_t fetching = 0;   ///< stalled on the background filler (input underrun)
  std::uint64_t matching = 0;   ///< match preparation + candidate comparison
  std::uint64_t output = 0;     ///< producing D/L output (including sink stalls)
  std::uint64_t updating = 0;   ///< full hash-table update after short matches
  std::uint64_t rotating = 0;   ///< head-table purge/rotation passes
  std::uint64_t total_cycles = 0;

  // Work counters.
  std::uint64_t bytes_in = 0;
  std::uint64_t literals = 0;
  std::uint64_t matches = 0;
  std::uint64_t match_bytes = 0;
  std::uint64_t chain_probes = 0;   ///< candidates examined
  std::uint64_t compare_bytes = 0;  ///< bytes compared by the wide comparer
  std::uint64_t rotation_passes = 0;
  std::uint64_t output_stall_cycles = 0;  ///< subset of `output`: sink backpressure
  std::uint64_t prefetch_hits = 0;        ///< WaitData skipped thanks to hash prefetch

  friend bool operator==(const CycleStats&, const CycleStats&) = default;

  [[nodiscard]] std::uint64_t tokens() const noexcept { return literals + matches; }
  [[nodiscard]] double cycles_per_byte() const noexcept {
    return bytes_in == 0 ? 0.0 : static_cast<double>(total_cycles) / static_cast<double>(bytes_in);
  }
  /// Throughput in MB/s (10^6 bytes) at the given clock.
  [[nodiscard]] double mb_per_s(double clock_mhz) const noexcept {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(bytes_in) * clock_mhz / static_cast<double>(total_cycles);
  }
  [[nodiscard]] double fraction(std::uint64_t part) const noexcept {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(part) / static_cast<double>(total_cycles);
  }
};

}  // namespace lzss::hw
