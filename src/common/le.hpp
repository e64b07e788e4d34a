// Little-endian integer fields, the byte order of every header this project
// writes: the LZRQ frames, the LZBC and LZS1 containers, the store's
// segments and index, and the service's u64 request/response payloads.
#pragma once

#include <cstdint>
#include <vector>

namespace lzss::le {

/// Appends the low @p bytes bytes of @p v, least significant first.
inline void put(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Reads @p bytes bytes at @p p, least significant first.
[[nodiscard]] inline std::uint64_t get(const std::uint8_t* p, int bytes) noexcept {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void put16(std::vector<std::uint8_t>& out, std::uint16_t v) { put(out, v, 2); }
inline void put32(std::vector<std::uint8_t>& out, std::uint32_t v) { put(out, v, 4); }
inline void put64(std::vector<std::uint8_t>& out, std::uint64_t v) { put(out, v, 8); }

[[nodiscard]] inline std::uint16_t get16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(get(p, 2));
}
[[nodiscard]] inline std::uint32_t get32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(get(p, 4));
}
[[nodiscard]] inline std::uint64_t get64(const std::uint8_t* p) noexcept { return get(p, 8); }

}  // namespace lzss::le
