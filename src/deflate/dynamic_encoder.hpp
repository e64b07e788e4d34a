// Dynamic-Huffman Deflate block writer (RFC 1951 section 3.2.7).
//
// Not used by the hardware (the paper deliberately fixes the table to avoid
// table-building cycles and memories). The software paths use it: the
// store's records, the LZBC container's software token source and
// `lzsszip`. The ablation bench measures how much compression the fixed
// table gives up against it. Its payload goes through the same
// write_tokens() loop as the fixed block's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitio.hpp"
#include "lzss/token.hpp"

namespace lzss::deflate {

/// Appends one dynamic-Huffman block (BTYPE=10) containing @p tokens. Throws
/// EncodeError (deflate/encoder.hpp) on a distance beyond 32 KiB, before
/// writing anything.
void write_dynamic_block(bits::BitWriter& w, std::span<const core::Token> tokens,
                         bool final_block);

/// Complete raw Deflate stream: a single final dynamic-Huffman block.
[[nodiscard]] std::vector<std::uint8_t> deflate_dynamic(std::span<const core::Token> tokens);

}  // namespace lzss::deflate
