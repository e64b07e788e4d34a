#include "common/bitio.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"

#include <algorithm>
#include <vector>

namespace lzss::bits {
namespace {

TEST(BitWriter, EmptyProducesNothing) {
  BitWriter w;
  EXPECT_TRUE(w.byte_aligned());
  EXPECT_EQ(w.take().size(), 0u);
}

TEST(BitWriter, SingleBitPadsToByte) {
  BitWriter w;
  w.put_bits(1, 1);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x01);  // LSB-first: first bit lands in bit 0
}

TEST(BitWriter, LsbFirstPacking) {
  BitWriter w;
  w.put_bits(0b1, 1);
  w.put_bits(0b01, 2);   // bits 1..2
  w.put_bits(0b10110, 5);  // bits 3..7
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110'01'1);
}

TEST(BitWriter, ValueMaskedToWidth) {
  BitWriter w;
  w.put_bits(0xFFFFFFFFu, 4);  // only 4 bits taken
  w.put_bits(0, 4);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x0F);
}

TEST(BitWriter, Full32BitWrite) {
  BitWriter w;
  w.put_bits(0xDEADBEEFu, 32);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xEF);
  EXPECT_EQ(bytes[1], 0xBE);
  EXPECT_EQ(bytes[2], 0xAD);
  EXPECT_EQ(bytes[3], 0xDE);
}

TEST(BitWriter, WideWritesAtOddPhase) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0xFEDCBA98u, 32);
  w.put_bits(0x3, 2);
  const auto bytes = w.take();
  BitReader r2(bytes);
  EXPECT_EQ(r2.get_bits(3), 0x5u);
  EXPECT_EQ(r2.get_bits(32), 0xFEDCBA98u);
  EXPECT_EQ(r2.get_bits(2), 0x3u);
}

TEST(BitWriter, AlignToByteIsIdempotent) {
  BitWriter w;
  w.put_bits(1, 1);
  w.align_to_byte();
  w.align_to_byte();
  EXPECT_EQ(w.bit_count(), 8u);
}

TEST(BitWriter, AlignedBytesAfterAlign) {
  BitWriter w;
  w.put_bits(0x3, 2);
  w.align_to_byte();
  const std::uint8_t payload[] = {0xAA, 0xBB};
  w.put_aligned_bytes(payload);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[1], 0xAA);
  EXPECT_EQ(bytes[2], 0xBB);
}

TEST(BitWriter, HuffmanCodesGoMsbFirst) {
  BitWriter w;
  // A 3-bit Huffman code 0b110 must appear as bits 1,1,0 in stream order,
  // i.e. reversed into the LSB-first packing: 0b011.
  w.put_huffman(0b110, 3);
  const auto bytes = w.take();
  EXPECT_EQ(bytes[0], 0b011);
}

TEST(BitWriter, EveryWidthAtEveryOffsetMatchesABitwiseReference) {
  // The word store flushes whole bytes only; whatever the offset the put
  // starts at, its bits must land where a bit-at-a-time writer puts them.
  rng::Xoshiro256 rng(5);
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (unsigned n = 0; n <= 32; ++n) {
      std::vector<bool> ref;
      BitWriter w;
      auto put = [&](std::uint32_t v, unsigned width) {
        w.put_bits(v, width);  // bits above the width must be ignored
        for (unsigned b = 0; b < width; ++b) ref.push_back(((v >> b) & 1) != 0);
      };
      for (unsigned left = offset; left > 0;) {
        const unsigned width = std::min(left, 1 + static_cast<unsigned>(rng.next_below(32)));
        put(static_cast<std::uint32_t>(rng.next()), width);
        left -= width;
      }
      ASSERT_EQ(w.bit_count(), offset);
      put(static_cast<std::uint32_t>(rng.next()), n);
      put(0x5, 3);  // a marker after the field
      EXPECT_EQ(w.bit_count(), ref.size());
      const auto bytes = w.take();
      ASSERT_EQ(bytes.size(), (ref.size() + 7) / 8) << offset << "+" << n;
      std::vector<std::uint8_t> want(bytes.size(), 0);
      for (std::size_t i = 0; i < ref.size(); ++i)
        if (ref[i]) want[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_EQ(bytes, want) << "offset " << offset << ", width " << n;
    }
  }
}

TEST(ReverseBits, KnownValues) {
  EXPECT_EQ(reverse_bits(0b1, 1), 0b1u);
  EXPECT_EQ(reverse_bits(0b100, 3), 0b001u);
  EXPECT_EQ(reverse_bits(0b0011000, 7), 0b0001100u);
  EXPECT_EQ(reverse_bits(0x1, 16), 0x8000u);
}

TEST(ReverseBits, MatchesABitwiseReferenceAtEveryWidth) {
  // Bits above the low n are ignored; width 0 gives 0 and 32 the whole word.
  rng::Xoshiro256 rng(5);
  for (unsigned n = 0; n <= 32; ++n) {
    for (int i = 0; i < 64; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next());
      std::uint32_t want = 0;
      for (unsigned b = 0; b < n; ++b) want |= ((v >> b) & 1u) << (n - 1 - b);
      ASSERT_EQ(reverse_bits(v, n), want) << "v=" << v << " n=" << n;
    }
  }
}

TEST(BitReader, ReadsBackLsbFirst) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0b11110000, 8);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(8), 0b11110000u);
}

TEST(BitReader, ThrowsAtEndOfData) {
  const std::uint8_t one = 0xFF;
  BitReader r({&one, 1});
  EXPECT_EQ(r.get_bits(8), 0xFFu);
  EXPECT_THROW((void)r.get_bits(1), std::out_of_range);
}

TEST(BitReader, AlignToByteDropsPartial) {
  const std::uint8_t data[] = {0xFF, 0x5A};
  BitReader r(data);
  EXPECT_EQ(r.get_bits(3), 0b111u);
  r.align_to_byte();
  EXPECT_EQ(r.get_aligned_byte(), 0x5A);
}

TEST(BitReader, BitPositionTracksConsumption) {
  const std::uint8_t data[] = {0x00, 0x00, 0x00};
  BitReader r(data);
  EXPECT_EQ(r.bit_position(), 0u);
  (void)r.get_bits(5);
  EXPECT_EQ(r.bit_position(), 5u);
  (void)r.get_bits(11);
  EXPECT_EQ(r.bit_position(), 16u);
}

TEST(BitReader, ExhaustedFlag) {
  const std::uint8_t data[] = {0xAB};
  BitReader r(data);
  EXPECT_FALSE(r.exhausted());
  (void)r.get_bits(8);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, RefillNeverReadsPastTheSpan) {
  // The span is a prefix of zeros inside a buffer of ones: no bit of the
  // ones may show up, whichever refill path runs (word loads while 8 bytes
  // remain, byte loads after).
  std::vector<std::uint8_t> buf(40, 0xFF);
  for (std::size_t n = 0; n <= 24; ++n) {
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), 0x00);
    BitReader r(std::span<const std::uint8_t>(buf.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      r.refill();
      EXPECT_EQ(r.window(), 0u) << n << " bytes, at " << i;
      // A refill buffers at least 56 bits, or all that is left.
      BitReader ahead = r;
      EXPECT_NO_THROW(ahead.consume(static_cast<unsigned>(std::min<std::size_t>(56, 8 * (n - i)))));
      r.consume(8);
    }
    r.refill();
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW(r.consume(1), std::out_of_range);
  }
}

TEST(BitReader, PeekAndConsumeMatchGetBits) {
  rng::Xoshiro256 rng(11);
  std::vector<std::pair<std::uint32_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(15));
    const auto v = static_cast<std::uint32_t>(rng.next_below(1u << n));
    fields.emplace_back(v, n);
    w.put_bits(v, n);
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    // Refill only every third field: a refill leaves at least 56 bits.
    if (i % 3 == 0) r.refill();
    const auto [v, n] = fields[i];
    EXPECT_EQ(r.peek(n), v);
    r.consume(n);
  }
}

TEST(BitReader, AlignedBytesSpanTheAccumulatorAndTheInput) {
  std::vector<std::uint8_t> data(40);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  for (std::size_t take = 0; take <= 30; ++take) {
    BitReader r(data);
    EXPECT_EQ(r.get_bits(3), data[0] & 7u);  // loads a whole word
    r.align_to_byte();
    std::vector<std::uint8_t> got(take);
    r.get_aligned_bytes(got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 1)) << take;
    EXPECT_EQ(r.get_bits(8), data[1 + take]) << take;  // and the reader carries on
  }
  BitReader r(data);
  std::vector<std::uint8_t> too_many(data.size() + 1);
  EXPECT_THROW(r.get_aligned_bytes(too_many), std::out_of_range);
}

TEST(BitRoundtrip, RandomSequences) {
  rng::Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::uint32_t, unsigned>> fields;
    BitWriter w;
    for (int i = 0; i < 200; ++i) {
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(32));
      const std::uint32_t v =
          static_cast<std::uint32_t>(rng.next()) & ((n == 32) ? ~0u : ((1u << n) - 1));
      fields.emplace_back(v, n);
      w.put_bits(v, n);
    }
    const auto bytes = w.take();
    BitReader r(bytes);
    for (const auto& [v, n] : fields) {
      EXPECT_EQ(r.get_bits(n), v);
    }
  }
}

TEST(BitRoundtrip, HuffmanOrderMatchesReverse) {
  rng::Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(15));
    const std::uint32_t code = static_cast<std::uint32_t>(rng.next_below(1u << n));
    BitWriter w;
    w.put_huffman(code, n);
    const auto bytes = w.take();
    BitReader r(bytes);
    // Reading bit-by-bit MSB-of-code-first must reconstruct the code.
    std::uint32_t got = 0;
    for (unsigned b = 0; b < n; ++b) got = (got << 1) | r.get_bit();
    EXPECT_EQ(got, code);
  }
}

}  // namespace
}  // namespace lzss::bits
