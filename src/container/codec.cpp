#include "container/codec.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/checksum.hpp"
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
    // raw_len (validated against block_size during parse) is the hard
    // output cap: the per-block inflate bomb guard. A stream that wants
    // more throws InflateBombError before the memory is committed.
    const auto raw = deflate::inflate_raw(comp, block.raw_len);
    if (raw.size() != block.raw_len)
      throw ContainerError(ContainerError::Kind::kBadLength,
                           "block inflated to the wrong length");
    std::memcpy(out.data(), raw.data(), raw.size());
  }
  if (checksum::crc32(out) != block.crc32)
    throw ContainerError(ContainerError::Kind::kCrcMismatch, "block CRC-32 mismatch");
}

std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> input,
                                         const BlockCodecConfig& config,
                                         EncodeReport* report) {
  // The hw source takes the stripe clamp; a software archive keeps the
  // requested size, which is its seek granularity.
  const auto* hw_source = std::get_if<hw::HwConfig>(&config.tokens);
  const std::size_t block_bytes =
      hw_source != nullptr ? par::clamp_block_bytes(config.block_bytes, hw_source->dict_size())
                           : config.block_bytes;
  if (block_bytes == 0 || block_bytes > kMaxBlockSize)
    throw std::invalid_argument("block_compress: block size outside (0, kMaxBlockSize]");
  const std::size_t blocks = block_count_for(input.size(), block_bytes);
  std::vector<std::vector<std::uint8_t>> records(blocks);
  std::atomic<std::size_t> stored_blocks{0};

  // Same shape as the multi-engine bank: threads pull block indices off a
  // shared counter; records land by index so order is deterministic.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto run = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= blocks) return;
      try {
        const std::size_t begin = i * block_bytes;
        const std::size_t len = std::min(block_bytes, input.size() - begin);
        const auto raw = input.subspan(begin, len);
        auto result = hw_source != nullptr
                          ? encode_block(*hw_source, nullptr, raw)
                          : encode_block(std::get<core::MatchParams>(config.tokens), raw);
        if (result.stored) stored_blocks.fetch_add(1);
        records[i] = std::move(result.record);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = config.threads == 0 ? hw_threads : config.threads;
  const unsigned n_threads =
      static_cast<unsigned>(std::min<std::size_t>(std::max(want, 1u), std::max<std::size_t>(blocks, 1)));
  if (n_threads <= 1) {
    run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(run);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

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
                                           std::size_t max_output, DecodeReport* report) {
  const SuperframeView view = parse(bytes, max_output);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(view.raw_total));
  std::size_t stored_blocks = 0;
  for (const auto& b : view.blocks)
    if (b.method == Method::kStored) ++stored_blocks;

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  auto run = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= view.blocks.size() || failed.load(std::memory_order_relaxed)) return;
      try {
        const BlockView& b = view.blocks[i];
        decode_block(b, std::span<std::uint8_t>(out).subspan(b.raw_offset, b.raw_len));
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const unsigned n_threads = static_cast<unsigned>(
      std::min<std::size_t>(hw_threads, std::max<std::size_t>(view.blocks.size(), 1)));
  if (n_threads <= 1) {
    run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(run);
    for (auto& t : pool) t.join();
  }
  // All-or-nothing: any failing block rethrows; a damaged container never
  // yields a partial payload.
  if (first_error) std::rethrow_exception(first_error);
  if (report != nullptr) {
    report->blocks = view.blocks.size();
    report->stored_blocks = stored_blocks;
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
