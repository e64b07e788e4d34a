#include "estimator/evaluate.hpp"

#include <stdexcept>
#include <string>

#include "deflate/encoder.hpp"
#include "lzss/decoder.hpp"

namespace lzss::est {

namespace {

/// Size in bits of @p tokens as one fixed-Huffman block. Presets whose
/// dictionary is over 32 KiB reach distances Deflate has no code for; those
/// are priced as Deflate64 codes them: codes 30 and 31 take 5 code bits and
/// 14 extra bits, one more than code 29, which ends at 32768.
std::uint64_t fixed_bits(std::span<const core::Token> tokens) {
  std::uint64_t bits = deflate::fixed_block_bits({});  // header + end-of-block
  for (const core::Token& t : tokens) {
    if (t.is_literal() || t.distance() <= deflate::kMaxDistance) {
      bits += deflate::fixed_token_bits(t);
    } else {
      bits += deflate::fixed_token_bits(core::Token::match(deflate::kMaxDistance, t.length())) + 1;
    }
  }
  return bits;
}

}  // namespace

Evaluation evaluate(const hw::HwConfig& config, std::span<const std::uint8_t> data,
                    bool verify) {
  Evaluation ev;
  ev.config = config;
  ev.input_bytes = data.size();

  hw::Compressor comp(config);
  auto result = comp.compress(data);
  if (verify && !core::tokens_reproduce(result.tokens, data)) {
    throw std::runtime_error("estimator: token stream does not reproduce the input for " +
                             config.describe());
  }
  ev.stats = result.stats;
  ev.compressed_bytes = (fixed_bits(result.tokens) + 7) / 8;
  ev.resources = fpga::estimate_resources(config);
  return ev;
}

}  // namespace lzss::est
