// Ablation: fixed-table vs dynamic Huffman coding.
//
// Section IV: "The cost for the high performance is less efficient
// compression compared to the dynamic huffman coders, however, it can be
// also compensated by increasing LZSS compression level." This bench
// quantifies both halves of that sentence on every bundled corpus.
#include "bench_util.hpp"

#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "hw/compressor.hpp"

namespace {

using namespace lzss;

void print_tables() {
  bench::print_title("ABLATION — FIXED vs DYNAMIC HUFFMAN CODING",
                     "paper: fixed table trades compression for zero table-building cycles;\n"
                     "a higher LZSS level can buy the loss back");

  const std::size_t bytes = bench::sample_bytes(4);
  std::printf("%-10s %12s %12s %10s %16s\n", "corpus", "fixed (B)", "dynamic (B)", "loss",
              "fixed@max (B)");
  for (const char* corpus : {"wiki", "x2e", "mixed", "periodic64", "random"}) {
    const auto data = wl::make_corpus(corpus, bytes);
    hw::Compressor min_level(hw::HwConfig::speed_optimized());
    const auto tokens = min_level.compress(data).tokens;
    const auto fixed_size = deflate::deflate_fixed(tokens).size();
    const auto dyn_size = deflate::deflate_dynamic(tokens).size();

    hw::Compressor max_level(hw::HwConfig::speed_optimized().with_level(9));
    const auto tokens9 = max_level.compress(data).tokens;
    const auto fixed9_size = deflate::deflate_fixed(tokens9).size();

    std::printf("%-10s %12zu %12zu %9.1f%% %16zu%s\n", corpus, fixed_size, dyn_size,
                100.0 * (double(fixed_size) - double(dyn_size)) / double(fixed_size),
                fixed9_size, fixed9_size <= dyn_size ? "  <- level compensates" : "");
  }
}

// One dynamic block over a large input, and over a log-record-sized one
// (the store's LOG_APPEND records are 256 B-8 KiB), where building the
// header's three codes costs more than packing the payload.
void BM_DynamicBlockBuild(benchmark::State& state, const char* corpus, std::size_t bytes) {
  const auto& data = bench::cached_corpus(corpus, bytes);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto tokens = comp.compress(data).tokens;
  for (auto _ : state) benchmark::DoNotOptimize(deflate::deflate_dynamic(tokens).size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK_CAPTURE(BM_DynamicBlockBuild, wiki_256k, "wiki", 256 * 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DynamicBlockBuild, x2e_2k, "x2e", 2 * 1024)->Unit(benchmark::kMicrosecond);

void BM_FixedBlockBuild(benchmark::State& state) {
  const auto& data = bench::cached_corpus("wiki", 256 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto tokens = comp.compress(data).tokens;
  for (auto _ : state) benchmark::DoNotOptimize(deflate::deflate_fixed(tokens).size());
}
BENCHMARK(BM_FixedBlockBuild)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return lzss::bench::run_bench_main(argc, argv, print_tables);
}
