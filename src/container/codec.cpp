#include "container/codec.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "common/checksum.hpp"
#include "container/scheduler.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "hw/functional.hpp"
#include "lzss/mf_encoder.hpp"
#include "parallel/stripe.hpp"

namespace lzss::container {

namespace {

std::vector<std::uint8_t> stored_record(std::span<const std::uint8_t> raw, std::uint32_t crc) {
  std::vector<std::uint8_t> record;
  record.reserve(kBlockHeaderSize + raw.size());
  append_block_header(record, Method::kStored, crc, static_cast<std::uint32_t>(raw.size()),
                      static_cast<std::uint32_t>(raw.size()));
  record.insert(record.end(), raw.begin(), raw.end());
  return record;
}

/// The record builder both token sources share: CRC-32 of the raw bytes,
/// the stored fallback and the header. @p deflate returns the block's
/// Deflate stream and may fill in the census.
template <typename Deflate>
BlockEncodeResult make_record(std::span<const std::uint8_t> raw, Deflate deflate) {
  BlockEncodeResult out;
  const std::uint32_t crc = checksum::crc32(raw);
  std::vector<std::uint8_t> deflated;
  try {
    deflated = deflate(out);
  } catch (const std::exception&) {
    // Degradation, not error: a stored record always round-trips, so one
    // failing block never fails the whole container.
    out.stored = true;
    out.census_valid = false;
    out.record = stored_record(raw, crc);
    return out;
  }
  if (deflated.size() >= raw.size() && !raw.empty()) {
    // Incompressible: the stored form is never larger than raw + header.
    out.stored = true;
    out.record = stored_record(raw, crc);
    return out;
  }
  out.record.reserve(kBlockHeaderSize + deflated.size());
  append_block_header(out.record, Method::kDeflate, crc,
                      static_cast<std::uint32_t>(raw.size()),
                      static_cast<std::uint32_t>(deflated.size()));
  out.record.insert(out.record.end(), deflated.begin(), deflated.end());
  return out;
}

/// The block loop behind block_compress and block_decompress: body(i) runs
/// once per block through @p run (run_local when empty), and a block's
/// exception lands in its own slot. Every block runs; the lowest-index
/// failure is rethrown afterwards, so a damaged container never yields a
/// partial payload.
template <typename RawLen, typename Body>
void for_each_block(std::size_t blocks, const BlockRunner& run, RawLen raw_len, Body body) {
  std::vector<std::exception_ptr> errors(blocks);
  const BlockFn block = [&](std::size_t i) {
    BlockOutcome outcome{raw_len(i), true};
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
      outcome.ok = false;
    }
    return outcome;
  };
  if (run) {
    run(blocks, block);
  } else {
    (void)run_local(blocks, block);
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

BlockEncodeResult encode_block(const hw::HwConfig& cfg, hw::Compressor* model,
                               std::span<const std::uint8_t> raw) {
  return make_record(raw, [&](BlockEncodeResult& out) {
    if (model == nullptr) return deflate::deflate_fixed(hw::compress_tokens(cfg, raw));
    auto result = model->compress(raw);
    out.census = result.stats;
    out.census_valid = true;
    return deflate::deflate_fixed(result.tokens);
  });
}

BlockEncodeResult encode_block(const core::MatchParams& params,
                               std::span<const std::uint8_t> raw) {
  return make_record(raw, [&](BlockEncodeResult&) {
    core::MatchFinderEncoder encoder(params);
    return deflate::deflate_dynamic(encoder.encode(raw));
  });
}

void decode_block(const BlockView& block, std::span<std::uint8_t> out) {
  if (out.size() != block.raw_len)
    throw ContainerError(ContainerError::Kind::kBadLength,
                         "decode_block output span mismatches raw_len");
  std::vector<std::uint8_t> corrupted;
  std::span<const std::uint8_t> comp = block.comp;
  if (fault::corrupt_into("container.block.corrupt", block.comp, corrupted)) comp = corrupted;

  if (block.method == Method::kStored) {
    if (comp.size() != block.raw_len)
      throw ContainerError(ContainerError::Kind::kBadLength,
                           "stored block length mismatch");
    std::memcpy(out.data(), comp.data(), comp.size());
  } else {
    // raw_len (validated against block_size during parse) sizes the output
    // span and is the hard output cap: the per-block inflate bomb guard. A
    // stream that wants more throws InflateBombError.
    if (deflate::inflate_into(comp, out) != block.raw_len)
      throw ContainerError(ContainerError::Kind::kBadLength,
                           "block inflated to the wrong length");
  }
  if (checksum::crc32(out) != block.crc32)
    throw ContainerError(ContainerError::Kind::kCrcMismatch, "block CRC-32 mismatch");
}

std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> input,
                                         const BlockCodecConfig& config, EncodeReport* report,
                                         const BlockRunner& run, const BlockEncoder& encode) {
  // The hw source takes the stripe clamp; a software archive keeps the
  // requested size, which is its seek granularity.
  const auto* hw_source = std::get_if<hw::HwConfig>(&config.tokens);
  const std::size_t block_bytes =
      hw_source != nullptr ? par::clamp_block_bytes(config.block_bytes, hw_source->dict_size())
                           : config.block_bytes;
  if (block_bytes == 0 || block_bytes > kMaxBlockSize)
    throw std::invalid_argument("block_compress: block size outside (0, kMaxBlockSize]");
  const std::size_t blocks = block_count_for(input.size(), block_bytes);
  const auto raw_block = [&](std::size_t i) {
    const std::size_t begin = i * block_bytes;
    return input.subspan(begin, std::min(block_bytes, input.size() - begin));
  };
  const auto encode_raw = [&](std::span<const std::uint8_t> raw) {
    if (encode) return encode(raw);
    if (hw_source != nullptr) return encode_block(*hw_source, nullptr, raw);
    return encode_block(std::get<core::MatchParams>(config.tokens), raw);
  };
  std::vector<std::vector<std::uint8_t>> records(blocks);
  std::atomic<std::size_t> stored_blocks{0};
  // Records land by index, so the order is deterministic whichever thread
  // ran the block.
  for_each_block(blocks, run, [&](std::size_t i) { return raw_block(i).size(); },
                 [&](std::size_t i) {
                   auto result = encode_raw(raw_block(i));
                   if (result.stored) stored_blocks.fetch_add(1, std::memory_order_relaxed);
                   records[i] = std::move(result.record);
                 });

  std::size_t total = kSuperframeHeaderSize;
  for (const auto& r : records) total += r.size();
  std::vector<std::uint8_t> out;
  out.reserve(total);
  append_superframe_header(out, static_cast<std::uint32_t>(block_bytes),
                           static_cast<std::uint32_t>(blocks), input.size());
  for (const auto& r : records) out.insert(out.end(), r.begin(), r.end());
  if (report != nullptr) {
    report->blocks = blocks;
    report->stored_blocks = stored_blocks.load();
    report->effective_block_bytes = block_bytes;
  }
  return out;
}

std::vector<std::uint8_t> block_decompress(std::span<const std::uint8_t> bytes,
                                           std::size_t max_output, DecodeReport* report,
                                           const BlockRunner& run) {
  const SuperframeView view = parse(bytes, max_output);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(view.raw_total));
  // Disjoint output slices: blocks land directly in the preallocated
  // output, with no reassembly copy.
  for_each_block(view.blocks.size(), run,
                 [&](std::size_t i) { return std::size_t{view.blocks[i].raw_len}; },
                 [&](std::size_t i) {
                   const BlockView& b = view.blocks[i];
                   decode_block(b, std::span<std::uint8_t>(out).subspan(b.raw_offset, b.raw_len));
                 });
  if (report != nullptr) {
    report->blocks = view.blocks.size();
    report->stored_blocks = static_cast<std::size_t>(
        std::count_if(view.blocks.begin(), view.blocks.end(),
                      [](const BlockView& b) { return b.method == Method::kStored; }));
  }
  return out;
}

std::vector<std::uint8_t> read_range(const SuperframeView& view, std::uint64_t offset,
                                     std::size_t length) {
  if (offset > view.raw_total || length > view.raw_total - offset)
    throw std::out_of_range("LZBC: read beyond raw_total");
  std::vector<std::uint8_t> out(length);
  if (length == 0) return out;  // also an empty container, whose block_size is 0
  std::vector<std::uint8_t> block;
  std::size_t done = 0;
  for (std::size_t i = offset / view.block_size; done < length; ++i) {
    const BlockView& b = view.blocks[i];
    block.resize(b.raw_len);
    decode_block(b, block);
    const std::size_t skip = static_cast<std::size_t>(offset + done - b.raw_offset);
    const std::size_t take = std::min<std::size_t>(length - done, b.raw_len - skip);
    std::memcpy(out.data() + done, block.data() + skip, take);
    done += take;
  }
  return out;
}

}  // namespace lzss::container
