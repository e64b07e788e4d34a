// The paper's motivating scenario: a high-bandwidth embedded logger that
// compresses an automotive CAN stream in real time.
//
// This example reproduces the ML507 testbench topology of section V: log
// data sits in DDR2, a LocalLink-style DMA engine streams it through the
// LZSS unit and the fixed-table Huffman coder, and a second engine writes
// the zlib-compatible result back to memory. It then answers the question
// the paper's introduction poses: how much storage bandwidth does real-time
// compression save the logger?
#include <cstdio>
#include <vector>

#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "deflate/container.hpp"
#include "deflate/inflate.hpp"
#include "hw/pipeline.hpp"
#include "workloads/can_gen.hpp"

int main() {
  using namespace lzss;

  // A logging session: 8 MB of CAN traffic (~400k frames), processed in
  // 1 MB blocks the way a real logger would fill and flush DMA buffers.
  constexpr std::size_t kBlock = 1024 * 1024;
  constexpr int kBlocks = 8;
  const auto traffic = wl::can_log(kBlock * kBlocks);

  const hw::HwConfig config = hw::HwConfig::speed_optimized();
  const stream::DmaTimings dma{.setup_cycles = 2000, .bytes_per_beat = 4};

  std::printf("embedded CAN logger  —  %d blocks x %zu bytes, %s\n", kBlocks, kBlock,
              config.describe().c_str());
  std::printf("%-7s %12s %12s %9s %10s\n", "block", "in bytes", "out bytes", "ratio", "MB/s");

  std::size_t total_in = 0, total_out = 0;
  std::uint64_t total_cycles = 0;
  for (int b = 0; b < kBlocks; ++b) {
    const std::span<const std::uint8_t> block(traffic.data() + b * kBlock, kBlock);
    const hw::SystemReport report = hw::run_system(config, block, dma);

    // Each block leaves the logger as an independent zlib stream so a crash
    // loses at most one buffer.
    const auto z = deflate::zlib_wrap(report.deflate_stream, checksum::adler32(block),
                                      config.dict_bits);
    if (deflate::zlib_decompress(z) != std::vector<std::uint8_t>(block.begin(), block.end())) {
      std::fprintf(stderr, "block %d round-trip FAILED\n", b);
      return 1;
    }
    total_in += block.size();
    total_out += z.size();
    total_cycles += report.total_cycles;
    std::printf("%-7d %12zu %12zu %9.3f %10.1f\n", b, block.size(), z.size(), report.ratio(),
                report.mb_per_s(config.clock_mhz));
  }

  const double seconds = static_cast<double>(total_cycles) / (config.clock_mhz * 1e6);
  std::printf("\nsession: %.1f MB logged, %.1f MB stored (ratio %.2f)\n", total_in / 1e6,
              total_out / 1e6, double(total_in) / double(total_out));
  std::printf("compression time %.3f s -> sustained %.1f MB/s including DMA setup\n", seconds,
              total_in / 1e6 / seconds);
  std::printf("storage bandwidth saved: %.1f%%\n", 100.0 * (1.0 - double(total_out) / total_in));

  // On the host side, the same traffic lands in a *seekable* LZBC archive:
  // the analysis tooling can pull out the frames around one timestamp
  // without inflating the gigabytes before it. read_range decodes only the
  // one block this probe falls in.
  container::BlockCodecConfig archive_config;
  archive_config.block_bytes = kBlock;
  archive_config.tokens = core::MatchParams::speed_optimized();
  const auto archive = container::block_compress(traffic, archive_config);
  const container::SuperframeView view = container::parse(archive, traffic.size());
  const std::uint64_t probe_offset = 5 * kBlock + 12345;
  const auto slice = container::read_range(view, probe_offset, 2000);
  const bool slice_ok =
      std::equal(slice.begin(), slice.end(), traffic.begin() + static_cast<long>(probe_offset));
  std::printf("\narchive: %zu blocks, %.2f MB; random 2 KB read at offset %llu — %s\n",
              view.blocks.size(), archive.size() / 1e6,
              static_cast<unsigned long long>(probe_offset), slice_ok ? "verified" : "MISMATCH");
  return slice_ok ? 0 : 1;
}
