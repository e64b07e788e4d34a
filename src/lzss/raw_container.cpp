#include "lzss/raw_container.hpp"

namespace lzss::core {
namespace {

constexpr std::uint8_t kMagic[4] = {'L', 'Z', 'S', '1'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 8 + 8;

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) out.push_back(static_cast<std::uint8_t>((v >> s) & 0xFF));
}

std::uint64_t get_le64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int s = 0; s < 8; ++s) v |= static_cast<std::uint64_t>(in[at + s]) << (8 * s);
  return v;
}

}  // namespace

std::vector<std::uint8_t> raw_container_pack(std::span<const Token> tokens, unsigned window_bits,
                                             std::uint64_t original_size) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  // push_back rather than range-insert: GCC 12's -Wstringop-overflow misfires
  // on inserting a fixed array into a fresh vector.
  for (const std::uint8_t b : kMagic) out.push_back(b);
  out.push_back(static_cast<std::uint8_t>(window_bits));
  put_le64(out, original_size);
  put_le64(out, tokens.size());
  const auto payload = pack_raw_tokens(tokens, window_bits);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

RawHeader raw_container_header(std::span<const std::uint8_t> c) {
  if (c.size() < kHeaderBytes) throw DecodeError("raw container: truncated header");
  for (std::size_t i = 0; i < 4; ++i) {
    if (c[i] != kMagic[i]) throw DecodeError("raw container: bad magic");
  }
  RawHeader h;
  h.window_bits = c[4];
  if (h.window_bits < 8 || h.window_bits > 20)
    throw DecodeError("raw container: implausible window");
  h.original_size = get_le64(c, 5);
  h.token_count = get_le64(c, 13);
  return h;
}

std::vector<std::uint8_t> raw_container_unpack(std::span<const std::uint8_t> c,
                                               std::size_t max_output) {
  const RawHeader h = raw_container_header(c);
  if (h.original_size > max_output)
    throw RawTooLargeError("raw container: original size exceeds the output cap");
  const std::span<const std::uint8_t> payload = c.subspan(kHeaderBytes);
  const std::uint64_t needed_bits = h.token_count * (h.window_bits + 8);
  if (payload.size() * 8 < needed_bits) throw DecodeError("raw container: truncated payload");
  const auto tokens =
      unpack_raw_tokens(payload, static_cast<std::size_t>(h.token_count), h.window_bits);
  auto data =
      decode_tokens(tokens, 1u << h.window_bits, static_cast<std::size_t>(h.original_size));
  if (data.size() != h.original_size)
    throw DecodeError("raw container: size mismatch after decode");
  return data;
}

}  // namespace lzss::core
