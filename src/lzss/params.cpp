#include "lzss/params.hpp"

#include <array>
#include <stdexcept>

namespace lzss::core {
namespace {

struct LevelConfig {
  std::uint32_t good, lazy, nice, chain;
  Strategy strategy;
};

// zlib's configuration_table, levels 1..9.
constexpr std::array<LevelConfig, 9> kLevels{{
    {4, 4, 8, 4, Strategy::kFast},        // 1
    {4, 5, 16, 8, Strategy::kFast},       // 2
    {4, 6, 32, 32, Strategy::kFast},      // 3
    {4, 4, 16, 16, Strategy::kSlow},      // 4
    {8, 16, 32, 32, Strategy::kSlow},     // 5
    {8, 16, 128, 128, Strategy::kSlow},   // 6
    {8, 32, 128, 256, Strategy::kSlow},   // 7
    {32, 128, 258, 1024, Strategy::kSlow},// 8
    {32, 258, 258, 4096, Strategy::kSlow} // 9
}};

}  // namespace

MatchParams MatchParams::with_level(int level) const {
  if (level < kMinLevel || level > kMaxLevel)
    throw std::invalid_argument("MatchParams::with_level: level must be 1..9");
  const LevelConfig& c = kLevels[static_cast<std::size_t>(level - 1)];
  MatchParams p = *this;
  p.good_length = c.good;
  p.max_lazy = c.lazy;
  p.nice_length = c.nice;
  p.max_chain = c.chain;
  p.strategy = c.strategy;
  return p;
}

MatchParams MatchParams::speed_optimized() {
  MatchParams p;
  p.window_bits = 12;
  p.hash.bits = 15;
  return p.with_level(kMinLevel);
}

std::string MatchParams::describe() const {
  return "window=" + std::to_string(window_size()) + "B hash=" + std::to_string(hash.bits) +
         "b chain=" + std::to_string(max_chain) +
         (strategy == Strategy::kSlow ? " lazy" : " fast") + " finder=" + finder_name(finder);
}

}  // namespace lzss::core
