#include "container/codec.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "container/scheduler.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "hw/functional.hpp"
#include "lzss/mf_encoder.hpp"

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

/// The one input splitter: part @p i of @p input cut into @p part_bytes
/// pieces, the last one short.
std::span<const std::uint8_t> part_of(std::span<const std::uint8_t> input,
                                      std::size_t part_bytes, std::size_t i) {
  const std::size_t begin = i * part_bytes;
  return input.subspan(begin, std::min(part_bytes, input.size() - begin));
}

/// The block loop behind block_compress, deflate_in_parts and
/// block_decompress: body(i) runs
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

std::vector<core::Token> source_tokens(const TokenSource& source,
                                       std::span<const std::uint8_t> input, std::size_t prefix,
                                       hw::CycleStats* census, core::FinderStats* finder) {
  if (const auto* hw_source = std::get_if<hw::HwConfig>(&source))
    return hw::compress_tokens(*hw_source, input, census, prefix);
  core::MatchFinderEncoder encoder(std::get<core::MatchParams>(source));
  auto tokens = encoder.encode(input, prefix);
  if (finder != nullptr) *finder = encoder.finder_stats();
  return tokens;
}

BlockEncodeResult encode_block(const TokenSource& source, std::span<const std::uint8_t> raw,
                               hw::CycleStats* census) {
  BlockEncodeResult out;
  const std::uint32_t crc = checksum::crc32(raw);
  std::vector<std::uint8_t> deflated;
  try {
    const auto tokens = source_tokens(source, raw, 0, census);
    deflated = std::holds_alternative<hw::HwConfig>(source) ? deflate::deflate_fixed(tokens)
                                                            : deflate::deflate_dynamic(tokens);
  } catch (const std::exception&) {
    // Degradation, not error: a stored record always round-trips, so one
    // failing block never fails the whole container.
    out.stored = true;
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
                                         const BlockRunner& run,
                                         std::vector<hw::CycleStats>* census) {
  // The hw source rounds blocks up to the dictionary; a software archive
  // keeps the requested size, which is its seek granularity.
  const auto* hw_source = std::get_if<hw::HwConfig>(&config.tokens);
  const std::size_t block_bytes =
      hw_source != nullptr ? std::max<std::size_t>(config.block_bytes, hw_source->dict_size())
                           : config.block_bytes;
  if (block_bytes == 0 || block_bytes > kMaxBlockSize)
    throw std::invalid_argument("block_compress: block size outside (0, kMaxBlockSize]");
  const std::size_t blocks = block_count_for(input.size(), block_bytes);
  const auto raw_block = [&](std::size_t i) { return part_of(input, block_bytes, i); };
  // One census slot per block, sized before any block runs: each block
  // writes only its own slot, whichever thread runs it.
  if (census != nullptr) census->assign(hw_source != nullptr ? blocks : 0, hw::CycleStats{});
  std::vector<std::vector<std::uint8_t>> records(blocks);
  std::atomic<std::size_t> stored_blocks{0};
  // Records land by index, so the order is deterministic whichever thread
  // ran the block.
  for_each_block(blocks, run, [&](std::size_t i) { return raw_block(i).size(); },
                 [&](std::size_t i) {
                   auto result = encode_block(config.tokens, raw_block(i),
                                              census != nullptr && hw_source != nullptr
                                                  ? &(*census)[i]
                                                  : nullptr);
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

PartsStream deflate_in_parts(const TokenSource& source, std::span<const std::uint8_t> input,
                             const BlockRunner& run, std::vector<hw::CycleStats>* census) {
  // An empty input is still one part: its block carries the end of stream.
  const std::size_t parts = std::max<std::size_t>(1, block_count_for(input.size(), kPartBytes));
  const bool hw_source = std::holds_alternative<hw::HwConfig>(source);
  if (census != nullptr) census->assign(hw_source ? parts : 0, hw::CycleStats{});
  std::vector<std::vector<std::uint8_t>> streams(parts);
  std::vector<std::uint32_t> adlers(parts);
  std::vector<core::FinderStats> finders(parts);
  const auto pack_part = [&](std::size_t i) {
    const std::size_t begin = i * kPartBytes;
    const std::span<const std::uint8_t> part = part_of(input, kPartBytes, i);
    adlers[i] = checksum::adler32(part);
    const bool last = i + 1 == parts;
    bits::BitWriter w;
    // The first part's buffer becomes the response: room for the zlib header.
    if (i == 0)
      for (std::size_t b = 0; b < deflate::kZlibHeaderBytes; ++b) w.put_aligned_byte(0);
    // The engine is primed with the bytes before the part (the source keeps
    // the last window of them), so its matches reach back across the cut as
    // one stream's would.
    deflate::write_fixed_block(
        w,
        source_tokens(source, input.first(begin + part.size()), begin,
                      census != nullptr && hw_source ? &(*census)[i] : nullptr, &finders[i]),
        last);
    if (!last) deflate::write_stored_block(w, {}, /*final_block=*/false);
    streams[i] = w.take();
  };
  // One part needs no scheduler, and keeps a small request off the fan-out.
  if (parts > 1) {
    for_each_block(parts, run, [&](std::size_t i) { return part_of(input, kPartBytes, i).size(); },
                   pack_part);
  } else {
    pack_part(0);
  }

  std::size_t total = deflate::kZlibTrailerBytes;
  for (const auto& s : streams) total += s.size();
  PartsStream out{std::move(streams[0]), adlers[0], finders[0]};
  out.bytes.reserve(total);
  for (std::size_t i = 1; i < parts; ++i) {
    out.bytes.insert(out.bytes.end(), streams[i].begin(), streams[i].end());
    out.adler =
        checksum::adler32_combine(out.adler, adlers[i], part_of(input, kPartBytes, i).size());
    out.finder += finders[i];
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
