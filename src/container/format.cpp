#include "container/format.hpp"

#include <cstring>

#include "common/le.hpp"

namespace lzss::container {

namespace {

[[noreturn]] void fail(ContainerError::Kind kind, const std::string& what) {
  throw ContainerError(kind, what);
}

}  // namespace

bool looks_like_container(std::span<const std::uint8_t> bytes) noexcept {
  return bytes.size() >= sizeof(kMagic) && std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

void append_superframe_header(std::vector<std::uint8_t>& out, std::uint32_t block_size,
                              std::uint32_t block_count, std::uint64_t raw_total) {
  out.reserve(out.size() + kSuperframeHeaderSize);
  for (const std::uint8_t b : kMagic) out.push_back(b);
  out.push_back(kFormatVersion);
  out.push_back(0);
  le::put16(out, 0);
  le::put32(out, block_size);
  le::put32(out, block_count);
  le::put64(out, raw_total);
}

void append_block_header(std::vector<std::uint8_t>& out, Method method, std::uint32_t crc32,
                         std::uint32_t raw_len, std::uint32_t comp_len) {
  out.reserve(out.size() + kBlockHeaderSize);
  le::put32(out, comp_len);
  le::put32(out, raw_len);
  out.push_back(static_cast<std::uint8_t>(method));
  out.push_back(0);
  le::put16(out, 0);
  le::put32(out, crc32);
}

SuperframeView parse(std::span<const std::uint8_t> bytes, std::size_t max_raw_total) {
  if (bytes.size() < kSuperframeHeaderSize)
    fail(ContainerError::Kind::kTruncated, "superframe header truncated");
  if (!looks_like_container(bytes)) fail(ContainerError::Kind::kBadMagic, "bad magic");
  if (bytes[4] != kFormatVersion)
    fail(ContainerError::Kind::kBadVersion,
         "unknown version " + std::to_string(bytes[4]));
  if (bytes[5] != 0 || bytes[6] != 0 || bytes[7] != 0)
    fail(ContainerError::Kind::kBadVersion, "reserved header bytes set");

  SuperframeView view;
  view.block_size = le::get32(bytes.data() + 8);
  const std::uint32_t block_count = le::get32(bytes.data() + 12);
  view.raw_total = le::get64(bytes.data() + 16);

  if (view.raw_total > max_raw_total)
    fail(ContainerError::Kind::kTooLarge,
         "raw_total " + std::to_string(view.raw_total) + " exceeds the cap of " +
             std::to_string(max_raw_total));
  if (block_count == 0) {
    if (view.raw_total != 0)
      fail(ContainerError::Kind::kBadLength, "raw_total without blocks");
    if (bytes.size() != kSuperframeHeaderSize)
      fail(ContainerError::Kind::kTrailingGarbage, "bytes after an empty superframe");
    return view;
  }
  if (view.block_size == 0 || view.block_size > kMaxBlockSize)
    fail(ContainerError::Kind::kBadBlockSize,
         "block_size " + std::to_string(view.block_size));
  // The count must match the fixed split exactly; this also bounds it by
  // raw_total (<= max_raw_total), so a hostile count cannot drive the
  // blocks vector's allocation.
  if (block_count != block_count_for(view.raw_total, view.block_size))
    fail(ContainerError::Kind::kBadLength,
         "block_count inconsistent with raw_total / block_size");

  // Every block carries at least its record header, so the bytes present
  // bound the count too; checked before the reserve, because raw_total alone
  // still admits one block per byte of a 64 MiB cap.
  if (block_count > (bytes.size() - kSuperframeHeaderSize) / kBlockHeaderSize)
    fail(ContainerError::Kind::kTruncated,
         "block_count " + std::to_string(block_count) + " exceeds the bytes present");
  view.blocks.reserve(block_count);
  std::size_t off = kSuperframeHeaderSize;
  std::uint64_t raw_sum = 0;
  for (std::uint32_t i = 0; i < block_count; ++i) {
    if (bytes.size() - off < kBlockHeaderSize)
      fail(ContainerError::Kind::kTruncated,
           "block " + std::to_string(i) + " header truncated");
    const std::uint8_t* h = bytes.data() + off;
    BlockView block;
    const std::uint32_t comp_len = le::get32(h);
    block.raw_len = le::get32(h + 4);
    if (h[8] > static_cast<std::uint8_t>(Method::kStored))
      fail(ContainerError::Kind::kBadMethod,
           "block " + std::to_string(i) + " method " + std::to_string(h[8]));
    block.method = static_cast<Method>(h[8]);
    if (h[9] != 0 || h[10] != 0 || h[11] != 0)
      fail(ContainerError::Kind::kBadMethod,
           "block " + std::to_string(i) + " reserved bytes set");
    block.crc32 = le::get32(h + 12);

    // Fixed split: every block is exactly block_size except a shorter (but
    // non-empty) final block. This is what makes raw offsets computable up
    // front, so decoded blocks can land in the output concurrently.
    const bool last = i + 1 == block_count;
    if (!last && block.raw_len != view.block_size)
      fail(ContainerError::Kind::kBadLength,
           "block " + std::to_string(i) + " raw_len not block_size");
    if (last && (block.raw_len == 0 || block.raw_len > view.block_size))
      fail(ContainerError::Kind::kBadLength, "final block raw_len out of range");
    if (block.method == Method::kStored && comp_len != block.raw_len)
      fail(ContainerError::Kind::kBadLength,
           "stored block " + std::to_string(i) + " comp_len != raw_len");

    off += kBlockHeaderSize;
    if (bytes.size() - off < comp_len)
      fail(ContainerError::Kind::kTruncated,
           "block " + std::to_string(i) + " payload truncated");
    block.comp = bytes.subspan(off, comp_len);
    block.raw_offset = static_cast<std::size_t>(raw_sum);
    raw_sum += block.raw_len;
    off += comp_len;
    view.blocks.push_back(block);
  }
  if (raw_sum != view.raw_total)
    fail(ContainerError::Kind::kBadLength, "block raw lengths do not sum to raw_total");
  if (off != bytes.size())
    fail(ContainerError::Kind::kTrailingGarbage, "bytes after the last block");
  return view;
}

}  // namespace lzss::container
