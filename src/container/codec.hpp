// BlockCodec: split → compress-per-block → reassemble, the symmetric
// parallel decode, and seeking reads. This is the only code that splits,
// assembles, parses and slice-decodes LZBC.
//
// block_compress / block_decompress are one block driver with two hooks: a
// BlockRunner decides where the blocks run, and a BlockEncoder how a block
// is compressed. Standalone callers (tools, benches, tests) leave both empty
// and get the local runner (container/scheduler.hpp: run_fanout with helper
// threads) and the config's token source; the service passes a runner over
// its worker queue and an encoder that samples the cycle model's census.
// read_range decodes only the blocks a byte range overlaps, which makes the
// container the seekable file archive too (lzsszip -f archive).
//
// Two token sources feed one record builder:
//  * hw::HwConfig — the cycle model's tokens (its functional twin, or the
//    model itself for a census), fixed Huffman: what COMPRESS_BLOCKED serves.
//  * core::MatchParams — MatchFinderEncoder tokens, dynamic Huffman: the
//    file archive's ratio.
//
// Per-block guarantees:
//  * encode_block never fails: when the match path throws, or Deflate would
//    expand the block, it degrades to a stored record — the container-level
//    analogue of the service's stored-container fallback.
//  * decode_block validates the CRC-32 of the raw bytes and inflates with
//    the block's raw_len as a hard output cap, so the existing inflate bomb
//    guard holds per block: a hostile record can never allocate past the
//    length its own header (already validated against block_size) claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <variant>
#include <vector>

#include "container/format.hpp"
#include "hw/compressor.hpp"
#include "hw/config.hpp"
#include "hw/cycle_stats.hpp"
#include "lzss/params.hpp"

namespace lzss::container {

/// Where a block's tokens come from; the alternative also picks the Huffman
/// kind (hw: fixed, software: dynamic).
using TokenSource = std::variant<hw::HwConfig, core::MatchParams>;

struct BlockCodecConfig {
  std::size_t block_bytes = 256 * 1024;  ///< split size before the dict clamp
  TokenSource tokens = hw::HwConfig::speed_optimized();
};

struct EncodeReport {
  std::size_t blocks = 0;
  std::size_t stored_blocks = 0;        ///< fallback / incompressible blocks
  std::size_t effective_block_bytes = 0;  ///< after the dictionary clamp
};

/// encode_block's output: the complete block record (header + payload).
struct BlockEncodeResult {
  std::vector<std::uint8_t> record;
  bool stored = false;
  bool census_valid = false;  ///< set only when the cycle model ran
  hw::CycleStats census{};
};

/// Compresses one raw block into a full LZBC block record. The tokens come
/// from the functional twin for @p cfg (hw/functional.hpp); pass a
/// caller-owned @p model built for @p cfg to run the cycle model instead and
/// get its census. Both give the same record.
[[nodiscard]] BlockEncodeResult encode_block(const hw::HwConfig& cfg, hw::Compressor* model,
                                             std::span<const std::uint8_t> raw);

/// Compresses one raw block into a full LZBC block record from
/// MatchFinderEncoder tokens under @p params, packed with dynamic Huffman.
[[nodiscard]] BlockEncodeResult encode_block(const core::MatchParams& params,
                                             std::span<const std::uint8_t> raw);

/// Decodes one parsed block into @p out, which must be exactly raw_len
/// bytes (the caller carves it out of the preallocated output at
/// block.raw_offset — disjoint slices, so blocks decode concurrently).
/// Throws ContainerError (kCrcMismatch / kBadLength) or deflate::InflateError.
/// Fault point "container.block.corrupt" flips bits in the compressed view.
void decode_block(const BlockView& block, std::span<std::uint8_t> out);

/// What a runner learns from one block, for its spans and metrics.
struct BlockOutcome {
  std::size_t raw_len = 0;
  bool ok = true;  ///< false: the block failed, and so will the whole call
};

/// One block of a block_compress / block_decompress call. Never throws.
using BlockFn = std::function<BlockOutcome(std::size_t index)>;

/// Calls block(i) once for every i in [0, blocks), on any threads, and
/// returns when all calls have returned. Empty = run_local.
using BlockRunner = std::function<void(std::size_t blocks, const BlockFn& block)>;

/// Builds one block's record from its raw bytes; may run on any thread.
/// Empty = encode_block for BlockCodecConfig::tokens (the hw source runs the
/// functional twin).
using BlockEncoder = std::function<BlockEncodeResult(std::span<const std::uint8_t> raw)>;

/// Splits, compresses each block through @p run, reassembles in order. With
/// the hw source the block size is clamped up to the dictionary (the stripe
/// clamp; the report carries the effective value). A block size of 0 or
/// beyond kMaxBlockSize throws std::invalid_argument.
[[nodiscard]] std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> input,
                                                       const BlockCodecConfig& config,
                                                       EncodeReport* report = nullptr,
                                                       const BlockRunner& run = {},
                                                       const BlockEncoder& encode = {});

struct DecodeReport {
  std::size_t blocks = 0;
  std::size_t stored_blocks = 0;
};

/// Parses strictly, then decodes every block (CRC-verified) through @p run
/// into its slice of the output. @p max_output caps raw_total (parse throws
/// kTooLarge beyond it); a failing block throws as decode_block does, the
/// lowest-index failure first, and no partial output is returned.
[[nodiscard]] std::vector<std::uint8_t> block_decompress(std::span<const std::uint8_t> bytes,
                                                         std::size_t max_output,
                                                         DecodeReport* report = nullptr,
                                                         const BlockRunner& run = {});

/// Reads @p length raw bytes from uncompressed @p offset of a parsed
/// container, decoding only the blocks the range overlaps: the fixed split
/// puts the first one at offset / block_size. Throws std::out_of_range for a
/// range past raw_total; a damaged block throws as decode_block does.
[[nodiscard]] std::vector<std::uint8_t> read_range(const SuperframeView& view,
                                                   std::uint64_t offset, std::size_t length);

}  // namespace lzss::container
