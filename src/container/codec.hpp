// BlockCodec: split → compress-per-block → reassemble, the symmetric
// parallel decode, and seeking reads. This is the only code that splits,
// assembles, parses and slice-decodes LZBC.
//
// block_compress / block_decompress / deflate_in_parts share one block loop
// with one hook: a BlockRunner decides where the blocks run. Standalone
// callers (tools, benches, tests) leave it empty and get the local runner
// (container/scheduler.hpp: run_fanout with helper threads); the service
// passes a runner over its worker queue. This file holds the only input
// splitter, and the only code that splits input across engines: pass
// block_compress or deflate_in_parts a census vector and every block runs on
// the cycle model, one census per block, which is what the engine-bank bench
// (bench/ext_multi_engine) reads. read_range decodes only the blocks a byte
// range overlaps, which makes the container the seekable file archive too
// (lzsszip -f archive).
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
};

/// Compresses one raw block into a full LZBC block record from
/// hw::compress_tokens(@p cfg, @p raw, @p census): the functional twin with
/// a null @p census, the cycle model otherwise. Both give the same record.
/// *@p census is written only when the model run completes; a block whose
/// model run threw falls back to stored and leaves it as it was.
[[nodiscard]] BlockEncodeResult encode_block(const hw::HwConfig& cfg,
                                             std::span<const std::uint8_t> raw,
                                             hw::CycleStats* census = nullptr);

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

/// Splits, compresses each block through @p run, reassembles in order. With
/// the hw source the block size is clamped up to the dictionary, since a
/// smaller block restarts the dictionary without buying parallelism (the
/// report carries the effective value). A block size of 0 or beyond
/// kMaxBlockSize throws std::invalid_argument.
///
/// A non-null @p census with the hw source runs every block on the cycle
/// model and resizes *@p census to one entry per block, in block order; a
/// block whose model run threw keeps a value-initialized entry
/// (total_cycles == 0). With the MatchParams source *@p census is cleared.
/// The bytes are the same with or without a census.
[[nodiscard]] std::vector<std::uint8_t> block_compress(
    std::span<const std::uint8_t> input, const BlockCodecConfig& config,
    EncodeReport* report = nullptr, const BlockRunner& run = {},
    std::vector<hw::CycleStats>* census = nullptr);

/// The part size of deflate_in_parts: a constant, so that no response byte
/// depends on the worker count or the host.
inline constexpr std::size_t kPartBytes = 16 * 1024;

/// deflate_in_parts' output.
struct PartsStream {
  /// deflate::kZlibHeaderBytes reserved bytes, then the raw Deflate stream:
  /// what deflate::zlib_wrap_in_place completes without a copy.
  std::vector<std::uint8_t> bytes;
  std::uint32_t adler = 1;  ///< Adler-32 of the input, combined from the parts'
};

/// One raw Deflate stream for @p input, built from parts of kPartBytes
/// matched independently: hw::compress_tokens on each part through @p run
/// (run_local when empty), each part packed as one fixed-Huffman block.
/// Every part after the first is primed with the dictionary before it (the
/// prefix of compress_tokens), so its matches reach back across the cut and
/// the parts cost about what one stream does (docs/MATCHFINDER.md). Every
/// non-final part ends with an empty stored block (zlib's Z_SYNC_FLUSH, as
/// pigz uses it), which byte-aligns it, so the parts join byte-wise; the
/// last block is final. Each part also computes the Adler-32 of its own
/// slice, and the results are combined in order. An input of at most one
/// part (empty included) is one block, deflate_fixed of its tokens, run on
/// the calling thread.
///
/// A non-null @p census runs every part on the cycle model and resizes
/// *@p census to one entry per part, in part order. The bytes are the same
/// with or without a census. A part that throws makes the call throw, the
/// lowest-index failure first.
[[nodiscard]] PartsStream deflate_in_parts(const hw::HwConfig& cfg,
                                           std::span<const std::uint8_t> input,
                                           const BlockRunner& run,
                                           std::vector<hw::CycleStats>* census);

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
