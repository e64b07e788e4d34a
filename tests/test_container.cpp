// LZBC container: format strictness, codec round-trips, and the claim-pool
// scheduler the service's fan-out path rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "container/scheduler.hpp"
#include "deflate/container.hpp"
#include "parallel/stripe.hpp"
#include "workloads/corpus.hpp"

namespace lzss::container {
namespace {

BlockCodecConfig small_blocks(std::size_t block_bytes = 16 * 1024) {
  BlockCodecConfig cfg;
  cfg.block_bytes = block_bytes;
  return cfg;
}

/// A runner with three real helper threads whatever the host's core count,
/// as a service's workers would give.
void threaded(std::size_t blocks, const BlockFn& block) {
  std::vector<std::jthread> helpers;
  (void)run_fanout(blocks, 3, block, [&](std::function<void()> task) {
    helpers.emplace_back(std::move(task));
    return true;
  });
}

ContainerError::Kind parse_kind(std::span<const std::uint8_t> bytes,
                                std::size_t cap = 1u << 30) {
  try {
    (void)parse(bytes, cap);
  } catch (const ContainerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parse unexpectedly succeeded";
  return ContainerError::Kind::kTruncated;
}

// ---------------------------------------------------------------- format --

TEST(ContainerFormat, BlockCountMath) {
  EXPECT_EQ(block_count_for(0, 1024), 0u);
  EXPECT_EQ(block_count_for(1, 1024), 1u);
  EXPECT_EQ(block_count_for(1024, 1024), 1u);
  EXPECT_EQ(block_count_for(1025, 1024), 2u);
  EXPECT_EQ(block_count_for(10 * 1024, 1024), 10u);
}

TEST(ContainerFormat, MagicSniff) {
  const auto packed = block_compress(wl::make_corpus("wiki", 4096), small_blocks());
  EXPECT_TRUE(looks_like_container(packed));
  EXPECT_FALSE(looks_like_container({}));
  const std::vector<std::uint8_t> zlib = {0x78, 0x9c, 0x03, 0x00};
  EXPECT_FALSE(looks_like_container(zlib));
}

TEST(ContainerFormat, EmptyInputIsHeaderOnly) {
  EncodeReport report;
  const auto packed = block_compress({}, small_blocks(), &report);
  EXPECT_EQ(packed.size(), kSuperframeHeaderSize);
  EXPECT_EQ(report.blocks, 0u);
  const auto view = parse(packed, 0);
  EXPECT_EQ(view.raw_total, 0u);
  EXPECT_TRUE(view.blocks.empty());
  EXPECT_TRUE(block_decompress(packed, 0).empty());
}

TEST(ContainerFormat, ParseRejectsEveryHeaderMutation) {
  const auto data = wl::make_corpus("wiki", 40 * 1024);
  const auto packed = block_compress(data, small_blocks());

  // Truncated superframe header.
  EXPECT_EQ(parse_kind(std::span(packed).first(kSuperframeHeaderSize - 1)),
            ContainerError::Kind::kTruncated);

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    auto copy = packed;
    copy[offset] = value;
    return copy;
  };
  EXPECT_EQ(parse_kind(mutate(0, 'X')), ContainerError::Kind::kBadMagic);
  EXPECT_EQ(parse_kind(mutate(4, 99)), ContainerError::Kind::kBadVersion);
  EXPECT_EQ(parse_kind(mutate(5, 1)), ContainerError::Kind::kBadVersion);  // reserved
  EXPECT_EQ(parse_kind(mutate(6, 1)), ContainerError::Kind::kBadVersion);  // reserved

  // block_size = 0 and block_size beyond the cap.
  {
    auto copy = packed;
    for (int i = 0; i < 4; ++i) copy[8 + i] = 0;
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadBlockSize);
    for (int i = 0; i < 4; ++i) copy[8 + i] = 0xFF;  // 4 GiB - 1 block size
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadBlockSize);
  }

  // block_count inconsistent with raw_total: the length-arithmetic guard
  // that also bounds the blocks-vector allocation against hostile headers.
  {
    auto copy = packed;
    copy[12] = static_cast<std::uint8_t>(copy[12] + 1);
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadLength);
    copy = packed;
    for (int i = 0; i < 4; ++i) copy[12 + i] = 0xFF;  // 4 billion blocks
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadLength);
  }

  // Method byte garbage and non-zero block-record reserved bytes.
  EXPECT_EQ(parse_kind(mutate(kSuperframeHeaderSize + 8, 7)), ContainerError::Kind::kBadMethod);
  EXPECT_EQ(parse_kind(mutate(kSuperframeHeaderSize + 9, 1)), ContainerError::Kind::kBadMethod);

  // Truncated block payload and trailing garbage.
  EXPECT_EQ(parse_kind(std::span(packed).first(packed.size() - 1)),
            ContainerError::Kind::kTruncated);
  {
    auto copy = packed;
    copy.push_back(0);
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kTrailingGarbage);
  }

  // The output cap: raw_total above it is the superframe bomb guard.
  EXPECT_EQ(parse_kind(packed, data.size() - 1), ContainerError::Kind::kTooLarge);
  EXPECT_NO_THROW((void)parse(packed, data.size()));
}

TEST(ContainerFormat, HostileBlockCountIsTruncatedBeforeAllocating) {
  // A 24-byte header whose count agrees with raw_total / block_size but
  // promises 2^32 - 1 records: rejected from the bytes present, before the
  // blocks vector is sized from the count.
  std::vector<std::uint8_t> header;
  append_superframe_header(header, 1, 0xFFFFFFFFu, 0xFFFFFFFFu);
  EXPECT_EQ(parse_kind(header, static_cast<std::size_t>(-1)), ContainerError::Kind::kTruncated);
}

// ----------------------------------------------------------------- codec --

TEST(ContainerCodec, RoundTripsAcrossSizes) {
  const auto cfg = small_blocks();
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{4095}, std::size_t{16 * 1024}, std::size_t{16 * 1024 + 1},
        std::size_t{100 * 1024}, std::size_t{256 * 1024}}) {
    const auto data = wl::make_corpus("mixed", size);
    EncodeReport report;
    const auto packed = block_compress(data, cfg, &report, threaded);
    EXPECT_EQ(report.blocks, block_count_for(size, report.effective_block_bytes)) << size;
    EXPECT_EQ(packed, block_compress(data, cfg)) << size;  // same bytes on one thread
    DecodeReport decode;
    EXPECT_EQ(block_decompress(packed, size, &decode, threaded), data) << size;
    EXPECT_EQ(decode.blocks, report.blocks) << size;
  }
}

TEST(ContainerCodec, RunnerSeesEveryBlockAndItsOutcome) {
  // Two damaged blocks out of four: the runner still runs every block and
  // sees which failed, and the call throws the lower-index failure.
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  auto packed = block_compress(data, small_blocks());
  const auto view = parse(packed, data.size());
  ASSERT_EQ(view.blocks.size(), 4u);
  const auto offset_of = [&](std::size_t block) {
    return static_cast<std::size_t>(view.blocks[block].comp.data() - packed.data());
  };
  packed[offset_of(1) - 4] ^= 0x01;   // block 1's CRC-32 (precedes the payload)
  packed[offset_of(3) + 10] ^= 0x01;  // inside block 3's Deflate stream

  std::vector<BlockOutcome> seen(4);
  const BlockRunner recording = [&](std::size_t blocks, const BlockFn& block) {
    for (std::size_t i = 0; i < blocks; ++i) seen[i] = block(i);
  };
  try {
    (void)block_decompress(packed, data.size(), nullptr, recording);
    FAIL() << "damaged container decoded";
  } catch (const ContainerError& e) {
    EXPECT_EQ(e.kind(), ContainerError::Kind::kCrcMismatch);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].raw_len, view.blocks[i].raw_len) << i;
    EXPECT_EQ(seen[i].ok, i != 1 && i != 3) << i;
  }
}

TEST(ContainerCodec, BlockSizeClampedUpToDictionary) {
  // A block smaller than the dictionary would waste the window; the shared
  // stripe clamp (parallel/stripe.hpp) raises it, visibly in the report.
  auto cfg = small_blocks(1024);
  const auto data = wl::make_corpus("wiki", 32 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, cfg, &report);
  EXPECT_EQ(report.effective_block_bytes, std::get<hw::HwConfig>(cfg.tokens).dict_size());
  EXPECT_EQ(block_decompress(packed, data.size()), data);
}

TEST(ContainerCodec, SoftwareSourceKeepsTheRequestedBlockSize) {
  // An archive's block size is its seek granularity: no clamp to the window.
  auto cfg = small_blocks(16 * 1024);
  core::MatchParams params;
  params.window_bits = 15;
  cfg.tokens = params;
  const auto data = wl::make_corpus("wiki", 40 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, cfg, &report);
  EXPECT_EQ(report.effective_block_bytes, 16u * 1024);
  EXPECT_EQ(report.blocks, 3u);
  EXPECT_EQ(block_decompress(packed, data.size()), data);
}

TEST(ContainerCodec, BlockSizeOutsideTheFormatIsRejected) {
  // The header cannot carry these: 0 would split nothing, and parse rejects
  // a block_size beyond kMaxBlockSize.
  auto cfg = small_blocks(0);
  cfg.tokens = core::MatchParams::speed_optimized();
  const auto data = wl::make_corpus("wiki", 4096);
  EXPECT_THROW((void)block_compress(data, cfg), std::invalid_argument);
  cfg.block_bytes = std::size_t{kMaxBlockSize} + 1;
  EXPECT_THROW((void)block_compress(data, cfg), std::invalid_argument);
}

TEST(ContainerCodec, IncompressibleBlocksAreStored) {
  // Random bytes don't deflate; every block must degrade to a stored record
  // and the container must stay within header overhead of the input.
  const auto data = wl::make_corpus("random", 64 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, small_blocks(), &report);
  EXPECT_EQ(report.stored_blocks, report.blocks);
  EXPECT_LE(packed.size(), data.size() + kSuperframeHeaderSize + report.blocks * kBlockHeaderSize);
  DecodeReport decode;
  EXPECT_EQ(block_decompress(packed, data.size(), &decode), data);
  EXPECT_EQ(decode.stored_blocks, report.blocks);
}

TEST(ContainerCodec, CompressibleBlocksShrink) {
  const auto data = wl::make_corpus("zeros", 64 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, small_blocks(), &report);
  EXPECT_EQ(report.stored_blocks, 0u);
  EXPECT_LT(packed.size(), data.size() / 4);
}

TEST(ContainerCodec, CrcFlipYieldsTypedMismatchNeverPartialOutput) {
  const auto data = wl::make_corpus("wiki", 48 * 1024);
  auto packed = block_compress(data, small_blocks());
  // Flip the CRC of the *last* block: earlier blocks decode fine, but the
  // request as a whole must still fail typed — all-or-nothing.
  const auto view = parse(packed, data.size());
  ASSERT_GE(view.blocks.size(), 2u);
  const auto* crc_addr = view.blocks.back().comp.data() - 4;  // crc32 precedes payload
  packed[static_cast<std::size_t>(crc_addr - packed.data())] ^= 0x01;
  try {
    (void)block_decompress(packed, data.size(), nullptr, threaded);
    FAIL() << "corrupted CRC round-tripped";
  } catch (const ContainerError& e) {
    EXPECT_EQ(e.kind(), ContainerError::Kind::kCrcMismatch);
  }
}

TEST(ContainerCodec, EncodeBlockNeverThrowsOnPathologicalInput) {
  // The fan-out work body relies on encode_block being total: a block the
  // model can't improve still yields a valid (stored) record.
  const auto cfg = hw::HwConfig::speed_optimized();
  for (const char* kind : {"random", "zeros", "wiki"}) {
    const auto data = wl::make_corpus(kind, 8 * 1024);
    const auto result = encode_block(cfg, nullptr, data);
    ASSERT_GE(result.record.size(), kBlockHeaderSize);
    const std::uint32_t comp_len = static_cast<std::uint32_t>(result.record[0]) |
                                   (static_cast<std::uint32_t>(result.record[1]) << 8) |
                                   (static_cast<std::uint32_t>(result.record[2]) << 16) |
                                   (static_cast<std::uint32_t>(result.record[3]) << 24);
    EXPECT_EQ(result.record.size(), kBlockHeaderSize + comp_len);
  }
}

// ----------------------------------------------------- seekable archive --

// The file archive's configuration: software tokens, dynamic Huffman.
BlockCodecConfig archive_blocks(std::size_t block_bytes) {
  BlockCodecConfig cfg = small_blocks(block_bytes);
  cfg.tokens = core::MatchParams::speed_optimized();
  return cfg;
}

TEST(ContainerArchive, EmptyArchive) {
  const auto packed = block_compress({}, archive_blocks(64 * 1024));
  const auto view = parse(packed, 0);
  EXPECT_EQ(view.raw_total, 0u);
  EXPECT_TRUE(view.blocks.empty());
  EXPECT_TRUE(read_range(view, 0, 0).empty());
  EXPECT_THROW((void)read_range(view, 0, 1), std::out_of_range);
}

TEST(ContainerArchive, FullRoundtrip) {
  const auto data = wl::make_corpus("x2e", 300 * 1024);
  const auto packed = block_compress(data, archive_blocks(64 * 1024));
  const auto view = parse(packed, data.size());
  EXPECT_EQ(view.raw_total, data.size());
  EXPECT_EQ(view.blocks.size(), 5u);  // ceil(300/64)
  EXPECT_EQ(read_range(view, 0, data.size()), data);
  EXPECT_EQ(block_decompress(packed, data.size()), data);
}

TEST(ContainerArchive, RandomAccessReadsAreCorrect) {
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  const auto packed = block_compress(data, archive_blocks(64 * 1024));
  const auto view = parse(packed, data.size());
  for (const auto& [off, len] : {std::pair<std::size_t, std::size_t>{0, 100},
                                {64 * 1024 - 50, 100},   // straddles a block boundary
                                {200'000, 150'000},      // spans multiple blocks
                                {512 * 1024 - 1, 1},     // last byte
                                {123'457, 0}}) {
    const auto got = read_range(view, off, len);
    ASSERT_EQ(got.size(), len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + static_cast<long>(off)))
        << off << "+" << len;
  }
}

TEST(ContainerArchive, ReadsAreLocalNotLinear) {
  // A read decodes only the blocks it overlaps: with block k's CRC broken,
  // reads elsewhere still succeed and any read that touches k fails typed.
  const auto data = wl::make_corpus("x2e", 8 * 64 * 1024);
  auto packed = block_compress(data, archive_blocks(64 * 1024));
  constexpr std::size_t k = 5;
  {
    const auto view = parse(packed, data.size());
    const auto* crc_addr = view.blocks[k].comp.data() - 4;  // crc32 precedes payload
    packed[static_cast<std::size_t>(crc_addr - packed.data())] ^= 0x01;
  }
  const auto view = parse(packed, data.size());
  const std::size_t block = 64 * 1024;

  const auto tail = read_range(view, data.size() - 20, 10);  // last block
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), data.end() - 20));
  const auto boundary = read_range(view, block - 5, 10);  // blocks 0 and 1
  EXPECT_TRUE(std::equal(boundary.begin(), boundary.end(), data.begin() + block - 5));

  for (const auto& [off, len] : {std::pair<std::size_t, std::size_t>{k * block + 100, 10},
                                {k * block - 5, 10},           // straddles into k
                                {(k + 1) * block - 5, 10}}) {  // straddles out of k
    try {
      (void)read_range(view, off, len);
      ADD_FAILURE() << "read touching the damaged block succeeded: " << off << "+" << len;
    } catch (const ContainerError& e) {
      EXPECT_EQ(e.kind(), ContainerError::Kind::kCrcMismatch);
    }
  }
}

TEST(ContainerArchive, OutOfRangeReadsRejected) {
  const auto data = wl::make_corpus("wiki", 10 * 1024);
  const auto packed = block_compress(data, archive_blocks(64 * 1024));
  const auto view = parse(packed, data.size());
  EXPECT_THROW((void)read_range(view, data.size(), 1), std::out_of_range);
  EXPECT_THROW((void)read_range(view, 0, data.size() + 1), std::out_of_range);
  EXPECT_THROW((void)read_range(view, std::uint64_t{1} << 63, 1), std::out_of_range);
  EXPECT_TRUE(read_range(view, data.size(), 0).empty());
}

TEST(ContainerArchive, SeekabilityCostsMeasurableRatio) {
  // Smaller blocks mean more dictionary resets and record headers, so a
  // small-block archive is larger than one zlib stream of the same parse.
  // Pin the direction and a sane bound.
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  const auto params = core::MatchParams::speed_optimized();
  const auto one_stream = deflate::zlib_compress(data, params, deflate::BlockKind::kDynamic);
  const auto fine = block_compress(data, archive_blocks(16 * 1024));
  const auto coarse = block_compress(data, archive_blocks(256 * 1024));
  EXPECT_GT(fine.size(), coarse.size());
  EXPECT_GT(coarse.size(), one_stream.size());
  EXPECT_LT(fine.size(), one_stream.size() * 5 / 4);  // within 25 %
}

// ------------------------------------------------------------- scheduler --

TEST(ContainerFanout, ClaimsAreUniqueAndExhaustive) {
  Fanout fan(5);
  std::vector<std::size_t> got;
  while (auto i = fan.claim()) {
    got.push_back(*i);
    fan.complete(*i);
  }
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(fan.all_complete());
}

TEST(ContainerFanout, AbandonedBlocksAreReclaimed) {
  // A helper dying mid-block hands its claim back; the next claimer gets
  // that block before any fresh one.
  Fanout fan(3);
  const auto first = fan.claim();
  ASSERT_TRUE(first.has_value());
  fan.abandon(*first);
  const auto again = fan.claim();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
}

TEST(ContainerFanout, QuiesceStopsClaimsAndWaitsInFlight) {
  Fanout fan(4);
  const auto claimed = fan.claim();
  ASSERT_TRUE(claimed.has_value());
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fan.complete(*claimed);
  });
  fan.quiesce();  // must block until the in-flight claim lands
  EXPECT_FALSE(fan.claim().has_value());
  finisher.join();
}

TEST(ContainerFanout, RunFanoutInlineOnlyWhenPoolRefuses) {
  // Queue always full: every helper is rejected and the parent still
  // finishes every block on its own thread — the no-deadlock guarantee.
  std::atomic<std::size_t> ran{0};
  const auto report = run_fanout(
      8, 4, [&](std::size_t) { ran.fetch_add(1); },
      [](std::function<void()>) { return false; });
  EXPECT_EQ(ran.load(), 8u);
  EXPECT_EQ(report.inline_blocks, 8u);
  EXPECT_EQ(report.helper_blocks, 0u);
  EXPECT_EQ(report.helpers_rejected, 4u);
}

TEST(ContainerFanout, RunFanoutSplitsWorkWithRealHelpers) {
  // Accepted helpers run on real threads, exactly as pool workers would;
  // every block runs exactly once.
  std::vector<std::thread> helpers;
  std::vector<std::atomic<int>> runs(64);
  const auto report = run_fanout(
      64, 3,
      [&](std::size_t i) {
        runs[i].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      [&](std::function<void()> task) {
        helpers.emplace_back(std::move(task));
        return true;
      });
  for (auto& t : helpers) t.join();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(report.helpers_enqueued, 3u);
  EXPECT_EQ(report.inline_blocks + report.helper_blocks, 64u);
  EXPECT_GT(report.helper_blocks, 0u);
}

TEST(ContainerFanout, RunLocalRunsEveryBlockOnce) {
  // The standalone runner: one helper thread per core beyond the caller's,
  // each joined before run_local returns.
  std::vector<std::atomic<int>> runs(64);
  const auto report = run_local(64, [&](std::size_t i) {
    runs[i].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(report.helpers_enqueued,
            std::min<std::size_t>(63, std::max(1u, std::thread::hardware_concurrency()) - 1));
  EXPECT_EQ(report.inline_blocks + report.helper_blocks, 64u);
}

TEST(ContainerFanout, ZeroBlocksIsANoOp) {
  const auto report = run_fanout(
      0, 4, [](std::size_t) { FAIL() << "no blocks to run"; },
      [](std::function<void()>) { return true; });
  EXPECT_EQ(report.blocks, 0u);
  EXPECT_EQ(report.helpers_enqueued, 0u);
}

// ---------------------------------------------------------- stripe clamp --

TEST(StripeClamp, EngineCountAndBlockBytes) {
  EXPECT_EQ(par::clamp_stripe_count(64 * 1024, 4096, 4), 4u);
  EXPECT_EQ(par::clamp_stripe_count(6 * 1024, 4096, 16), 1u);   // < 2 dictionaries
  EXPECT_EQ(par::clamp_stripe_count(16 * 1024, 4096, 16), 4u);  // data-bound
  EXPECT_EQ(par::clamp_stripe_count(1024, 4096, 0), 1u);        // floor of one
  EXPECT_EQ(par::clamp_block_bytes(1024, 4096), 4096u);
  EXPECT_EQ(par::clamp_block_bytes(256 * 1024, 4096), 256u * 1024);
}

}  // namespace
}  // namespace lzss::container
