#include "deflate/inflate.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "deflate/fixed_tables.hpp"
#include "deflate/huffman.hpp"
#include "fault/fault.hpp"

namespace lzss::deflate {
namespace {

constexpr std::array<std::uint8_t, 19> kClcOrder{16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                 11, 4,  12, 3, 13, 2, 14, 1, 15};

// Extra-bit counts by literal/length symbol (RFC 1951 section 3.2.5).
constexpr auto kLitLenExtra = [] {
  std::array<std::uint8_t, kNumLitLenSymbols> extra{};
  for (std::size_t i = 0; i < kLengthExtra.size(); ++i) extra[kFirstLengthCode + i] = kLengthExtra[i];
  return extra;
}();

constexpr std::size_t kMaxMatch = 258;
// Room one fast-loop step needs past the write position: two literals, a
// whole match and the overrun of copy_match_fast's 16-byte first step.
constexpr std::size_t kFastRoom = 2 + kMaxMatch + 16;

/// Copies a match of @p length bytes from @p distance back, writing nothing
/// past dst + length. An overlapped match repeats its first @p distance
/// bytes; each memcpy doubles the copied prefix, which stays a whole number
/// of periods, so source and destination never overlap.
void copy_match(std::uint8_t* dst, std::size_t distance, std::size_t length) {
  if (distance == 1) {
    std::memset(dst, dst[-1], length);
    return;
  }
  const std::size_t first = std::min(distance, length);
  std::memcpy(dst, dst - distance, first);
  for (std::size_t done = first; done < length;) {
    const std::size_t n = std::min(done, length - done);
    std::memcpy(dst + done, dst, n);
    done += n;
  }
}

/// copy_match in 8-byte chunks; may write up to 15 bytes past dst + length.
/// Most matches are short, so the first 16 bytes go without a loop test.
void copy_match_fast(std::uint8_t* dst, std::size_t distance, std::size_t length) {
  if (distance < 8) {
    copy_match(dst, distance, length);
    return;
  }
  const std::uint8_t* src = dst - distance;
  const std::uint8_t* const end = dst + length;
  std::memcpy(dst, src, 8);
  std::memcpy(dst + 8, src + 8, 8);
  dst += 16;
  src += 16;
  while (dst < end) {
    std::memcpy(dst, src, 8);
    dst += 8;
    src += 8;
  }
}

/// Where inflate writes. data_[0, pos_) is the output so far and the whole
/// match window. A fixed span is sized by its caller from a length the
/// container declares; a vector grows geometrically as output appears, so
/// memory follows what the stream actually produces, never the cap.
class Output {
 public:
  Output(std::span<std::uint8_t> buffer, std::size_t cap)
      : data_(buffer.data()), size_(std::min(buffer.size(), cap)), limit_(size_) {}
  Output(std::vector<std::uint8_t>& vec, std::size_t cap) : vec_(&vec), limit_(cap) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

  /// True when kFastRoom bytes fit before the cap, growing a vector if
  /// needed. Then a literal or a match can be written with no cap check.
  [[nodiscard]] bool fast_room() {
    if (size_ - pos_ >= kFastRoom) [[likely]] return true;
    if (vec_ == nullptr || limit_ - pos_ < kFastRoom) return false;
    grow(kFastRoom);
    return true;
  }

  /// Makes room for @p n more bytes. The bomb guard: throws
  /// InflateBombError, before committing memory, past the cap.
  void reserve(std::size_t n) {
    if (n <= size_ - pos_) return;
    if (n > limit_ - pos_) throw_bomb();
    grow(n);
  }

  void put(std::uint8_t b) noexcept { data_[pos_++] = b; }
  /// Where the next byte goes; the caller made room for what it writes.
  [[nodiscard]] std::uint8_t* tail() noexcept { return data_ + pos_; }
  void advance(std::size_t n) noexcept { pos_ += n; }

  /// Trims a vector to the bytes written.
  void finish() {
    if (vec_ != nullptr) vec_->resize(pos_);
  }

 private:
  // Only the vector escapes to out-of-line code, never the Output, so a
  // local Output can live in registers.
  void grow(std::size_t n) {
    size_ = std::min(limit_, std::max({pos_ + n, 2 * size_, std::size_t{4096}}));
    data_ = resize(*vec_, size_);
  }
  static std::uint8_t* resize(std::vector<std::uint8_t>& vec, std::size_t n) {
    vec.resize(n);
    return vec.data();
  }
  [[noreturn]] static void throw_bomb() {
    throw InflateBombError("inflate: output exceeds expansion cap");
  }

  std::vector<std::uint8_t>* vec_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;   // writable bytes at data_
  std::size_t limit_;      // the cap: size_ never passes it
  std::size_t pos_ = 0;
};

/// Decodes one block's literal/length and distance symbols until
/// end-of-block, in two loops in the style of zlib's inflate_fast:
///   - the fast loop runs while at least 8 input bytes remain, so each
///     refill buffers at least 56 bits, and while fast_room() holds, so no
///     write below checks the cap. One refill covers up to three literals,
///     or up to two literals and a length code with its extra bits; a
///     length code read first leaves room for the distance code too;
///   - the careful loop decodes one symbol at a time near the end of the
///     input or the cap, checking the cap before every write.
/// consume() throws std::out_of_range whenever a code runs past the input.
void inflate_codes(bits::BitReader& reader, const HuffmanDecoder& lit, const HuffmanDecoder& dist,
                   Output& output) {
  // Local copies: a store through the output's byte pointer may alias any
  // object, so state reached through a reference is reloaded after every
  // byte written; locals whose address never escapes stay in registers.
  bits::BitReader r = reader;
  Output out = output;
  // The rest of a match after its length code (up to 20 bits with its
  // extra bits): a distance code and its extra bits, up to 28 more.
  auto match_distance = [&](HuffmanDecoder::Symbol len_sym, std::uint32_t& length) {
    if (len_sym.value() > 285) throw InflateError("inflate: invalid length symbol");
    length = length_base(len_sym.value()) + len_sym.extra();
    if (dist.empty()) throw InflateError("inflate: match with no distance code");
    const HuffmanDecoder::Symbol dist_sym = dist.decode(r);
    if (dist_sym.value() > 29) throw InflateError("inflate: invalid distance symbol");
    const std::uint32_t distance = distance_base(dist_sym.value()) + dist_sym.extra();
    if (distance > out.pos()) throw InflateError("inflate: distance too far back");
    return distance;
  };
  for (;;) {
    while (r.bytes_left() >= 8 && out.fast_room()) {
      r.refill();
      HuffmanDecoder::Symbol sym = lit.decode(r);
      if (sym.value() < 256) {
        out.put(static_cast<std::uint8_t>(sym.value()));
        sym = lit.decode(r);
        if (sym.value() < 256) {
          out.put(static_cast<std::uint8_t>(sym.value()));
          sym = lit.decode(r);
          if (sym.value() < 256) {
            out.put(static_cast<std::uint8_t>(sym.value()));
            continue;
          }
        }
        r.refill();
      }
      if (sym.value() == kEndOfBlock) {
        reader = r;
        output = out;
        return;
      }
      std::uint32_t length = 0;
      const std::uint32_t distance = match_distance(sym, length);
      copy_match_fast(out.tail(), distance, length);
      out.advance(length);
    }
    r.refill();
    const HuffmanDecoder::Symbol sym = lit.decode(r);
    if (sym.value() < 256) {
      out.reserve(1);
      out.put(static_cast<std::uint8_t>(sym.value()));
      continue;
    }
    if (sym.value() == kEndOfBlock) break;
    std::uint32_t length = 0;
    const std::uint32_t distance = match_distance(sym, length);
    out.reserve(length);
    copy_match(out.tail(), distance, length);
    out.advance(length);
  }
  reader = r;
  output = out;
}

void inflate_stored(bits::BitReader& r, Output& out) {
  r.align_to_byte();
  const std::uint32_t len = r.get_bits(16);
  const std::uint32_t nlen = r.get_bits(16);
  if ((len ^ nlen) != 0xFFFF) throw InflateError("inflate: stored block LEN/NLEN mismatch");
  out.reserve(len);
  r.get_aligned_bytes({out.tail(), len});
  out.advance(len);
}

void inflate_fixed(bits::BitReader& r, Output& out) {
  static const HuffmanDecoder lit = [] {
    std::array<std::uint8_t, 288> lengths{};
    for (unsigned s = 0; s <= 143; ++s) lengths[s] = 8;
    for (unsigned s = 144; s <= 255; ++s) lengths[s] = 9;
    for (unsigned s = 256; s <= 279; ++s) lengths[s] = 7;
    for (unsigned s = 280; s <= 287; ++s) lengths[s] = 8;
    return HuffmanDecoder(lengths, kLitLenExtra);
  }();
  static const HuffmanDecoder dist = [] {
    std::array<std::uint8_t, 32> lengths{};
    lengths.fill(5);
    return HuffmanDecoder(lengths, kDistExtra);
  }();
  inflate_codes(r, lit, dist, out);
}

void inflate_dynamic(bits::BitReader& r, Output& out) {
  const std::uint32_t hlit = r.get_bits(5) + 257;
  const std::uint32_t hdist = r.get_bits(5) + 1;
  const std::uint32_t hclen = r.get_bits(4) + 4;
  if (hlit > 286 || hdist > 30) throw InflateError("inflate: bad HLIT/HDIST");

  std::array<std::uint8_t, 19> clc_lengths{};
  for (std::uint32_t i = 0; i < hclen; ++i)
    clc_lengths[kClcOrder[i]] = static_cast<std::uint8_t>(r.get_bits(3));
  const HuffmanDecoder clc(clc_lengths);

  std::vector<std::uint8_t> lengths;
  lengths.reserve(hlit + hdist);
  while (lengths.size() < hlit + hdist) {
    r.refill();
    const unsigned sym = clc.decode(r).value();
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      if (lengths.empty()) throw InflateError("inflate: repeat with no previous length");
      const std::uint32_t n = 3 + r.get_bits(2);
      lengths.insert(lengths.end(), n, lengths.back());
    } else if (sym == 17) {
      lengths.insert(lengths.end(), 3 + r.get_bits(3), 0);
    } else {  // 18
      lengths.insert(lengths.end(), 11 + r.get_bits(7), 0);
    }
  }
  if (lengths.size() != hlit + hdist) throw InflateError("inflate: code length overflow");

  const std::span<const std::uint8_t> all(lengths);
  const HuffmanDecoder lit(all.subspan(0, hlit), kLitLenExtra);
  const HuffmanDecoder dist(all.subspan(hlit, hdist), kDistExtra);
  inflate_codes(r, lit, dist, out);
}

void inflate_blocks(std::span<const std::uint8_t> stream, Output& out) {
  bits::BitReader r(stream);
  try {
    for (;;) {
      const std::uint32_t bfinal = r.get_bit();
      const std::uint32_t btype = r.get_bits(2);
      switch (btype) {
        case 0:
          inflate_stored(r, out);
          break;
        case 1:
          inflate_fixed(r, out);
          break;
        case 2:
          inflate_dynamic(r, out);
          break;
        default:
          throw InflateError("inflate: reserved block type");
      }
      if (bfinal != 0) break;
    }
  } catch (const InflateError&) {
    throw;
  } catch (const std::out_of_range&) {
    throw InflateError("inflate: unexpected end of data");
  } catch (const std::invalid_argument& e) {
    // Malformed Huffman codes surface from the decoder constructor.
    throw InflateError(std::string("inflate: ") + e.what());
  } catch (const std::runtime_error& e) {
    // A code an incomplete table does not hold.
    throw InflateError(std::string("inflate: ") + e.what());
  }
  out.finish();
}

/// Checks a zlib header and returns the Deflate body and the trailer's
/// Adler-32. @p damaged holds the copy the corruption fault point damages.
std::span<const std::uint8_t> zlib_body(std::span<const std::uint8_t> stream,
                                        std::vector<std::uint8_t>& damaged,
                                        std::uint32_t& adler) {
  // Bit-corruption fault point: when armed, this call sees a damaged copy of
  // the container, exactly like flipped bits on a storage or transport path.
  if (fault::corrupt_into("deflate.inflate.corrupt", stream, damaged)) stream = damaged;

  if (stream.size() < 6) throw InflateError("zlib: stream too short");
  const std::uint8_t cmf = stream[0];
  const std::uint8_t flg = stream[1];
  if ((cmf & 0x0F) != 8) throw InflateError("zlib: compression method is not deflate");
  if ((static_cast<unsigned>(cmf) * 256 + flg) % 31 != 0)
    throw InflateError("zlib: FCHECK failed");
  if ((flg & 0x20) != 0) throw InflateError("zlib: preset dictionaries unsupported");
  const std::size_t t = stream.size() - 4;
  adler = (std::uint32_t{stream[t]} << 24) | (std::uint32_t{stream[t + 1]} << 16) |
          (std::uint32_t{stream[t + 2]} << 8) | stream[t + 3];
  return stream.subspan(2, stream.size() - 6);
}

void check_adler(std::span<const std::uint8_t> out, std::uint32_t expected) {
  if (checksum::adler32(out) != expected) throw InflateError("zlib: Adler-32 mismatch");
}

}  // namespace

std::vector<std::uint8_t> inflate_raw(std::span<const std::uint8_t> stream,
                                      std::size_t max_output) {
  // Even without a caller cap, output is bounded by the structural expansion
  // limit — a corrupt or hostile stream cannot force unbounded allocation.
  std::vector<std::uint8_t> vec;
  Output out(vec, std::min(max_output, max_inflate_expansion(stream.size())));
  inflate_blocks(stream, out);
  return vec;
}

std::size_t inflate_into(std::span<const std::uint8_t> stream, std::span<std::uint8_t> out) {
  Output sink(out, max_inflate_expansion(stream.size()));
  inflate_blocks(stream, sink);
  return sink.pos();
}

std::vector<std::uint8_t> zlib_decompress(std::span<const std::uint8_t> stream,
                                          std::size_t max_output, std::uint32_t* adler) {
  std::vector<std::uint8_t> damaged;
  std::uint32_t expected = 0;
  auto out = inflate_raw(zlib_body(stream, damaged, expected), max_output);
  check_adler(out, expected);
  if (adler != nullptr) *adler = expected;
  return out;
}

std::size_t zlib_decompress_into(std::span<const std::uint8_t> stream,
                                 std::span<std::uint8_t> out) {
  std::vector<std::uint8_t> damaged;
  std::uint32_t expected = 0;
  const std::size_t n = inflate_into(zlib_body(stream, damaged, expected), out);
  check_adler(out.first(n), expected);
  return n;
}

std::vector<std::uint8_t> gzip_decompress(std::span<const std::uint8_t> stream,
                                          std::size_t max_output) {
  if (stream.size() < 18) throw InflateError("gzip: stream too short");
  if (stream[0] != 0x1F || stream[1] != 0x8B) throw InflateError("gzip: bad magic");
  if (stream[2] != 8) throw InflateError("gzip: compression method is not deflate");
  const std::uint8_t flags = stream[3];
  std::size_t pos = 10;
  if ((flags & 0x04) != 0) {  // FEXTRA
    if (pos + 2 > stream.size()) throw InflateError("gzip: truncated FEXTRA");
    const std::size_t xlen = stream[pos] | (std::size_t{stream[pos + 1]} << 8);
    pos += 2 + xlen;
  }
  for (const std::uint8_t bit : {std::uint8_t{0x08}, std::uint8_t{0x10}}) {  // FNAME, FCOMMENT
    if ((flags & bit) != 0) {
      while (pos < stream.size() && stream[pos] != 0) ++pos;
      ++pos;
    }
  }
  if ((flags & 0x02) != 0) pos += 2;  // FHCRC
  if (pos + 8 >= stream.size()) throw InflateError("gzip: truncated header");

  auto out = inflate_raw(stream.subspan(pos, stream.size() - pos - 8), max_output);
  const std::size_t t = stream.size() - 8;
  auto le32 = [&](std::size_t i) {
    return std::uint32_t{stream[i]} | (std::uint32_t{stream[i + 1]} << 8) |
           (std::uint32_t{stream[i + 2]} << 16) | (std::uint32_t{stream[i + 3]} << 24);
  };
  if (checksum::crc32(out) != le32(t)) throw InflateError("gzip: CRC-32 mismatch");
  if (static_cast<std::uint32_t>(out.size()) != le32(t + 4))
    throw InflateError("gzip: ISIZE mismatch");
  return out;
}

}  // namespace lzss::deflate
