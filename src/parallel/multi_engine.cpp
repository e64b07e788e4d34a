#include "parallel/multi_engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/bitio.hpp"
#include "container/scheduler.hpp"
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
    std::exception_ptr error;
  };
  std::vector<EngineOutput> outputs(num_engines);

  // Each engine is one block of the shared scheduler: the calling thread
  // and up to one helper thread per further core run the stripes.
  (void)container::run_local(num_engines, [&](std::size_t i) {
    try {
      hw::Compressor comp(config);
      auto result = comp.compress(stripe_of(data, num_engines, static_cast<unsigned>(i)));
      outputs[i].tokens = std::move(result.tokens);
      outputs[i].stats = result.stats;
    } catch (...) {
      outputs[i].error = std::current_exception();
    }
  });
  for (const auto& o : outputs)
    if (o.error) std::rethrow_exception(o.error);

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
