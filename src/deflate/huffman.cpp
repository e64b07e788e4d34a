#include "deflate/huffman.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "deflate/fixed_tables.hpp"

namespace lzss::deflate {

namespace {

// A used symbol's sort key: freq << kSymbolBits | symbol, so that one
// integer sort orders the leaves by (freq, symbol).
constexpr unsigned kSymbolBits = 9;
constexpr std::uint64_t kSymbolMask = (std::uint64_t{1} << kSymbolBits) - 1;
static_assert(kMaxHuffmanSymbols == kSymbolMask + 1 && kMaxHuffmanFreq == ~0ull >> kSymbolBits);

}  // namespace

void huffman_code_lengths(std::span<const std::uint64_t> freqs, unsigned max_bits,
                          std::span<std::uint8_t> lengths) {
  const std::size_t n = freqs.size();
  if (n > kMaxHuffmanSymbols)
    throw std::invalid_argument("huffman_code_lengths: alphabet larger than 512 symbols");
  if (lengths.size() != n)
    throw std::invalid_argument("huffman_code_lengths: lengths and freqs differ in size");
  std::fill(lengths.begin(), lengths.end(), std::uint8_t{0});

  // 1. The used symbols, sorted by (freq, symbol): gathered in symbol
  // order, then a stable LSD radix sort on the frequency bits of the key,
  // a byte per pass, up to the largest frequency's top byte. Unlike a
  // comparison sort it takes no data-dependent branch.
  std::array<std::uint64_t, kMaxHuffmanSymbols> keys{}, scratch{};
  std::size_t m = 0;
  std::uint64_t max_freq = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    if (freqs[s] > kMaxHuffmanFreq)
      throw std::invalid_argument("huffman_code_lengths: frequency of 2^55 or more");
    keys[m++] = freqs[s] << kSymbolBits | s;
    max_freq = std::max(max_freq, freqs[s]);
  }
  if (m == 0) return;
  if (m == 1) {
    lengths[keys[0] & kSymbolMask] = 1;
    return;
  }
  std::uint64_t* leaf = keys.data();
  std::uint64_t* out = scratch.data();
  for (unsigned shift = kSymbolBits; (max_freq >> (shift - kSymbolBits)) != 0; shift += 8) {
    std::array<std::uint16_t, 256> start{};
    for (std::size_t i = 0; i < m; ++i) start[(leaf[i] >> shift) & 0xFF]++;
    std::uint16_t sum = 0;
    for (auto& c : start) {
      const std::uint16_t count = c;
      c = sum;
      sum = static_cast<std::uint16_t>(sum + count);
    }
    for (std::size_t i = 0; i < m; ++i) out[start[(leaf[i] >> shift) & 0xFF]++] = leaf[i];
    std::swap(leaf, out);
  }

  // 2. Two-queue merge: the sorted leaves, and the merged nodes in the order
  // they are made, which is also ascending weight. Each step joins the two
  // lightest fronts, a leaf before a node of equal weight: the order a
  // (freq, node index) heap pops them in, with leaves numbered by symbol
  // before every merged node.
  std::array<std::uint64_t, kMaxHuffmanSymbols> weight{};  // merged node i's weight
  std::array<std::uint16_t, kMaxHuffmanSymbols> leaf_parent{}, node_parent{};
  std::size_t next_leaf = 0, next_node = 0;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    std::uint64_t w = 0;
    for (int pick = 0; pick < 2; ++pick) {
      // next_node == i: no merged node is waiting.
      if (next_leaf < m &&
          (next_node == i || (leaf[next_leaf] >> kSymbolBits) <= weight[next_node])) {
        w += leaf[next_leaf] >> kSymbolBits;
        leaf_parent[next_leaf++] = static_cast<std::uint16_t>(i);
      } else {
        w += weight[next_node];
        node_parent[next_node++] = static_cast<std::uint16_t>(i);
      }
    }
    weight[i] = w;
  }

  // 3. Depths. A parent is made after its children, so one pass from the
  // root (the last node) down reaches every parent before its children.
  std::array<std::uint16_t, kMaxHuffmanSymbols> depth{};
  depth[m - 2] = 0;
  for (std::size_t i = m - 2; i-- > 0;) depth[i] = depth[node_parent[i]] + 1;
  unsigned overflow_max = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const unsigned d = depth[leaf_parent[j]] + 1u;
    lengths[leaf[j] & kSymbolMask] = static_cast<std::uint8_t>(std::min(d, max_bits));
    overflow_max = std::max(overflow_max, d);
  }

  if (overflow_max <= max_bits) return;

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
}

std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freqs,
                                               unsigned max_bits) {
  std::vector<std::uint8_t> lengths(freqs.size());
  huffman_code_lengths(freqs, max_bits, lengths);
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
  const CanonicalCode code = canonical_code(lengths);
  const auto& reversed = code.reversed;

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
