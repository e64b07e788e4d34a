// Extension: scaling a bank of compressor units.
//
// A single unit uses ~6 % of the XC5VFX70T's logic, so several fit; this
// bench measures the aggregate-throughput / compression-ratio trade-off of
// splitting the input across 1..8 engines. The bank is the LZBC block
// codec: block_compress cuts the input into E blocks of ceil(size / E)
// bytes and, given a census vector, runs each block on its own cycle model.
// Every block restarts the dictionary, so small blocks cost a little ratio.
#include "bench_util.hpp"

#include <algorithm>

#include "container/codec.hpp"

namespace {

using namespace lzss;

/// One bank run: the container, its report and one census per engine.
struct BankRun {
  std::vector<std::uint8_t> container;
  container::EncodeReport report;
  std::vector<hw::CycleStats> census;
};

BankRun run_bank(const hw::HwConfig& cfg, std::span<const std::uint8_t> data, unsigned engines) {
  BankRun run;
  const std::size_t block_bytes = (data.size() + engines - 1) / engines;
  run.container =
      container::block_compress(data, {block_bytes, cfg}, &run.report, {}, &run.census);
  return run;
}

void print_tables() {
  bench::print_title("EXTENSION — MULTI-ENGINE SCALING (Wiki workload)",
                     "aggregate throughput of 1..8 compressor units @ 100 MHz");

  const std::size_t bytes = bench::sample_bytes(8);
  const auto& data = bench::cached_corpus("wiki", bytes);

  // MB here is decimal (10^6 bytes): all units share one clock, so the bank
  // takes parallel_cycles / (clock_mhz * 10^6) seconds on chip, and
  // bytes * MHz / cycles is exactly 10^6 bytes/s.
  std::printf("%-9s %9s %14s %10s %10s %14s\n", "requested", "effective", "aggregate MB/s",
              "speedup", "ratio", "BRAM36 (bank)");
  const hw::HwConfig cfg = hw::HwConfig::speed_optimized();
  double base = 0;
  for (const unsigned engines : {1u, 2u, 4u, 8u}) {
    const BankRun run = run_bank(cfg, data, engines);
    // Sanity: the container must round-trip.
    if (container::block_decompress(run.container, data.size()) != data) {
      std::fprintf(stderr, "multi-engine container corrupt!\n");
      std::exit(1);
    }
    // The slowest unit sets the bank's wall-clock time on chip.
    std::uint64_t parallel_cycles = 0;
    for (const hw::CycleStats& unit : run.census)
      parallel_cycles = std::max(parallel_cycles, unit.total_cycles);
    const double mbps =
        static_cast<double>(data.size()) * cfg.clock_mhz / static_cast<double>(parallel_cycles);
    if (engines == 1) base = mbps;
    // Rows are labelled with the bank width that actually ran: on a small
    // corpus the block>=dictionary clamp can shrink the bank, and the BRAM
    // cost scales with real units, not the request.
    const auto effective = static_cast<unsigned>(run.report.blocks);
    std::printf("%-9u %9u %14.1f %9.2fx %10.3f %14u\n", engines, effective, mbps, mbps / base,
                static_cast<double>(data.size()) / static_cast<double>(run.container.size()),
                21 * effective);  // 21 RAMB36 per unit at this configuration
  }
}

void BM_MultiEngine4(benchmark::State& state) {
  const auto& data = bench::cached_corpus("wiki", 512 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bank(hw::HwConfig::speed_optimized(), data, 4).census.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_MultiEngine4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return lzss::bench::run_bench_main(argc, argv, print_tables);
}
