#include "parallel/multi_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/bitio.hpp"
#include "deflate/encoder.hpp"
#include "parallel/stripe.hpp"

namespace lzss::par {

namespace {

/// Stripe @p i of @p data cut into @p engines contiguous, near-equal slices.
std::span<const std::uint8_t> stripe_of(std::span<const std::uint8_t> data, unsigned engines,
                                        unsigned i) {
  const std::size_t stripe = (data.size() + engines - 1) / engines;
  const std::size_t begin = std::min(static_cast<std::size_t>(i) * stripe, data.size());
  return data.subspan(begin, std::min(stripe, data.size() - begin));
}

}  // namespace

MultiEngineReport compress_multi_engine(const hw::HwConfig& config,
                                        std::span<const std::uint8_t> data,
                                        unsigned num_engines) {
  if (num_engines == 0) throw std::invalid_argument("compress_multi_engine: zero engines");
  const unsigned requested_engines = num_engines;
  // Stripes smaller than the dictionary make no sense; shrink the bank. The
  // clamp is reported (requested vs effective) instead of happening silently —
  // a bench labelled "8 engines" that actually ran 2 is a lie. The same rule
  // sizes the block container's blocks (parallel/stripe.hpp).
  num_engines = clamp_stripe_count(data.size(), config.dict_size(), num_engines);

  struct EngineOutput {
    std::vector<core::Token> tokens;
    hw::CycleStats stats;
  };
  std::vector<EngineOutput> outputs(num_engines);

  // One host thread per engine, pulling stripe indices off a shared counter.
  std::atomic<unsigned> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const unsigned i = next.fetch_add(1);
      if (i >= num_engines) return;
      try {
        hw::Compressor comp(config);
        auto result = comp.compress(stripe_of(data, num_engines, i));
        outputs[i].tokens = std::move(result.tokens);
        outputs[i].stats = result.stats;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const unsigned n_threads = std::min(num_engines, hw_threads);
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  MultiEngineReport report;
  report.requested_engines = requested_engines;
  report.effective_engines = num_engines;
  report.input_bytes = data.size();
  bits::BitWriter w;
  for (unsigned i = 0; i < num_engines; ++i) {
    report.engines.push_back(outputs[i].stats);
    report.parallel_cycles = std::max(report.parallel_cycles, outputs[i].stats.total_cycles);
    report.serial_cycles += outputs[i].stats.total_cycles;
    deflate::write_fixed_block(w, outputs[i].tokens, /*final_block=*/i + 1 == num_engines);
  }
  report.deflate_stream = w.take();
  report.compressed_bytes = report.deflate_stream.size();
  return report;
}

}  // namespace lzss::par
