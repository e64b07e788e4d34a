// Extension: seekable-archive block-size trade-off.
//
// The LZBC container compresses in independent blocks so analysis tools can
// seek; each block resets the dictionary and pays a 16-byte record header.
// This bench maps the block size against compression ratio and the cost of
// a random 4 KB read (bytes decoded to serve it).
#include "bench_util.hpp"

#include "container/codec.hpp"

namespace {

using namespace lzss;

std::vector<std::uint8_t> build_archive(std::span<const std::uint8_t> data,
                                        std::size_t block_kb) {
  container::BlockCodecConfig config;
  config.block_bytes = block_kb * 1024;
  config.tokens = core::MatchParams::speed_optimized();
  return container::block_compress(data, config);
}

void print_tables() {
  bench::print_title("EXTENSION — SEEKABLE ARCHIVE: BLOCK SIZE vs RATIO vs SEEK COST",
                     "X2E traffic; random 4 KB reads; smaller blocks = cheaper seeks, "
                     "worse ratio");

  const std::size_t bytes = bench::sample_bytes(8);
  const auto data = wl::make_corpus("x2e", bytes);

  std::printf("%-12s %10s %10s %14s %20s\n", "block (KB)", "blocks", "ratio",
              "archive (MB)", "KB decoded per read");
  for (const std::size_t block_kb : {16u, 64u, 256u, 1024u}) {
    const auto archive = build_archive(data, block_kb);
    const auto view = container::parse(archive, data.size());

    // Average the blocks a few spread-out 4 KB reads overlap: read_range
    // decodes exactly those.
    const std::size_t block_bytes = view.block_size;
    double touched = 0;
    const int kReads = 16;
    for (int i = 0; i < kReads; ++i) {
      const std::uint64_t off =
          static_cast<std::uint64_t>(i) * (data.size() - 4096) / kReads;
      (void)container::read_range(view, off, 4096);
      touched += static_cast<double>((off + 4095) / block_bytes - off / block_bytes + 1);
    }
    std::printf("%-12zu %10zu %10.3f %14.2f %20.1f\n", block_bytes / 1024, view.blocks.size(),
                double(data.size()) / double(archive.size()), archive.size() / 1e6,
                touched / kReads * static_cast<double>(block_bytes) / 1024);
  }
}

void BM_ArchiveRandomRead(benchmark::State& state) {
  const auto& data = bench::cached_corpus("x2e", 1024 * 1024);
  const auto archive = build_archive(data, static_cast<std::size_t>(state.range(0)));
  const auto view = container::parse(archive, data.size());
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 77'777) % (data.size() - 4096);
    benchmark::DoNotOptimize(container::read_range(view, off, 4096).size());
  }
}
BENCHMARK(BM_ArchiveRandomRead)->Arg(16)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return lzss::bench::run_bench_main(argc, argv, print_tables);
}
