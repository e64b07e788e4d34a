#include "deflate/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace lzss::deflate {

std::vector<std::uint16_t> canonical_codes(std::span<const std::uint8_t> lengths) {
  unsigned max_len = 0;
  for (const auto l : lengths) max_len = std::max<unsigned>(max_len, l);

  std::vector<std::uint32_t> bl_count(max_len + 1, 0);
  for (const auto l : lengths)
    if (l != 0) bl_count[l]++;

  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    next_code[len] = code;
  }

  std::vector<std::uint16_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] != 0) codes[s] = static_cast<std::uint16_t>(next_code[lengths[s]]++);
  }
  return codes;
}

std::vector<std::uint16_t> stream_order_codes(std::span<const std::uint8_t> lengths) {
  std::vector<std::uint16_t> codes = canonical_codes(lengths);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    codes[s] = static_cast<std::uint16_t>(bits::reverse_bits(codes[s], lengths[s]));
  return codes;
}

std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freqs,
                                               unsigned max_bits) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  struct Node {
    std::uint64_t freq;
    int left = -1, right = -1;  // -1 for leaves
    std::uint16_t symbol = 0;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);

  using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<std::uint16_t>(s)});
    heap.emplace(freqs[s], static_cast<int>(nodes.size() - 1));
  }
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[nodes[heap.top().second].symbol] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, 0});
    heap.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
  }

  // Depth-first assignment of depths.
  std::vector<std::pair<int, unsigned>> stack{{heap.top().second, 0}};
  unsigned overflow_max = 0;
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(idx)];
    if (nd.left < 0) {
      lengths[nd.symbol] = static_cast<std::uint8_t>(std::min(depth, max_bits));
      overflow_max = std::max(overflow_max, depth);
      continue;
    }
    stack.emplace_back(nd.left, depth + 1);
    stack.emplace_back(nd.right, depth + 1);
  }

  if (overflow_max <= max_bits) return lengths;

  // Kraft repair (zlib-style): clamping to max_bits over-subscribes the
  // code space; lengthen the cheapest symbols until the Kraft sum is exact.
  const std::uint64_t budget = 1ull << max_bits;
  auto kraft = [&] {
    std::uint64_t k = 0;
    for (const auto l : lengths)
      if (l != 0) k += budget >> l;
    return k;
  };
  // Symbols sorted by ascending frequency, so we demote the rarest first.
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < n; ++s)
    if (freqs[s] != 0) order.push_back(s);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return freqs[a] < freqs[b]; });

  std::uint64_t k = kraft();
  while (k > budget) {
    // Find a symbol whose code can be lengthened (length < max_bits).
    bool changed = false;
    for (const std::size_t s : order) {
      if (lengths[s] != 0 && lengths[s] < max_bits) {
        k -= budget >> lengths[s];
        lengths[s]++;
        k += budget >> lengths[s];
        changed = true;
        if (k <= budget) break;
      }
    }
    if (!changed) throw std::logic_error("huffman_code_lengths: cannot satisfy Kraft");
  }
  // Optionally shorten codes to use the slack (keeps the code canonicalizable
  // and slightly improves efficiency); iterate from the most frequent.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    while (lengths[*it] > 1) {
      const std::uint64_t gain = (budget >> (lengths[*it] - 1)) - (budget >> lengths[*it]);
      if (k + gain > budget) break;
      lengths[*it]--;
      k += gain;
    }
  }
  return lengths;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths,
                               std::span<const std::uint8_t> extra_bits) {
  std::uint32_t count[kMaxBits + 1] = {};  // number of codes of each length
  unsigned max_len = 0;
  for (const auto l : lengths) {
    if (l > kMaxBits) throw std::invalid_argument("HuffmanDecoder: length > 15");
    if (l != 0) count[l]++;
    max_len = std::max<unsigned>(max_len, l);
  }
  // Over-subscription check (Kraft inequality).
  std::int64_t left = 1;
  for (unsigned len = 1; len <= kMaxBits; ++len) {
    left <<= 1;
    left -= count[len];
    if (left < 0) throw std::invalid_argument("HuffmanDecoder: over-subscribed code");
  }
  total_symbols_ = std::accumulate(std::begin(count), std::end(count), 0u);
  // The first bit read is the lowest bit of a stream-order code.
  const std::vector<std::uint16_t> reversed = stream_order_codes(lengths);

  root_bits_ = std::min(max_len, kMaxRootBits);
  root_mask_ = (1u << root_bits_) - 1;
  table_.assign(std::size_t{1} << root_bits_, kInvalid);
  // Each root slot that prefixes longer codes links to a sub-table sized by
  // the longest of them.
  std::vector<std::uint8_t> longest(table_.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > root_bits_)
      longest[reversed[s] & root_mask_] = std::max(longest[reversed[s] & root_mask_], lengths[s]);
  for (std::size_t slot = 0; slot < longest.size(); ++slot) {
    if (longest[slot] == 0) continue;
    table_[slot] = static_cast<std::uint32_t>(table_.size() << 16) | kLink | longest[slot];
    table_.resize(table_.size() + (std::size_t{1} << (longest[slot] - root_bits_)), kInvalid);
  }

  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    const unsigned extra = s < extra_bits.size() ? extra_bits[s] : 0;
    const auto entry = static_cast<std::uint32_t>(s << 16 | len << 8 | (len + extra));
    if (len <= root_bits_) {
      for (std::size_t i = reversed[s]; i <= root_mask_; i += std::size_t{1} << len)
        table_[i] = entry;
    } else {
      const std::uint32_t link = table_[reversed[s] & root_mask_];
      std::uint32_t* sub = table_.data() + (link >> 16);
      const std::size_t sub_size = std::size_t{1} << ((link & kLenMask) - root_bits_);
      for (std::size_t i = reversed[s] >> root_bits_; i < sub_size;
           i += std::size_t{1} << (len - root_bits_))
        sub[i] = entry;
    }
  }
}

void HuffmanDecoder::throw_bad_code() {
  throw std::runtime_error("HuffmanDecoder: invalid code in stream");
}

}  // namespace lzss::deflate
