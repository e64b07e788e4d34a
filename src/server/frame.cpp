#include "server/frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/le.hpp"

namespace lzss::server {

namespace {

constexpr std::uint8_t kRequestMagic[4] = {'L', 'Z', 'R', 'Q'};
constexpr std::uint8_t kResponseMagic[4] = {'L', 'Z', 'R', 'S'};

}  // namespace

std::vector<std::uint8_t> encode_request(const RequestFrame& frame) {
  const std::size_t ext = trace_extension_size(frame.flags);
  std::vector<std::uint8_t> out;
  out.reserve(kRequestHeaderSize + ext + frame.payload.size());
  for (const std::uint8_t b : kRequestMagic) out.push_back(b);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(frame.opcode));
  le::put16(out, frame.flags);
  le::put64(out, frame.id);
  le::put32(out, static_cast<std::uint32_t>(ext + frame.payload.size()));
  if (ext != 0) le::put64(out, frame.trace_id);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

std::vector<std::uint8_t> encode_response(const ResponseFrame& frame) {
  const std::size_t ext = trace_extension_size(frame.flags);
  std::vector<std::uint8_t> out;
  out.reserve(kResponseHeaderSize + ext + frame.payload.size());
  for (const std::uint8_t b : kResponseMagic) out.push_back(b);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(frame.status));
  le::put16(out, frame.flags);
  le::put64(out, frame.id);
  le::put32(out, frame.adler);
  le::put32(out, static_cast<std::uint32_t>(ext + frame.payload.size()));
  if (ext != 0) le::put64(out, frame.trace_id);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kCompress: return "compress";
    case Opcode::kDecompress: return "decompress";
    case Opcode::kStats: return "stats";
    case Opcode::kLogAppend: return "log_append";
    case Opcode::kLogRead: return "log_read";
    case Opcode::kCompressBlocked: return "compress_blocked";
    case Opcode::kScrub: return "scrub";
    case Opcode::kVerify: return "verify";
  }
  return "?";
}

const char* match_backend_name(MatchBackend backend) noexcept {
  switch (backend) {
    case MatchBackend::kHw: return "hw";
    case MatchBackend::kHashChain: return "hashchain";
    case MatchBackend::kGreedy: return "greedy";
  }
  return "?";
}

bool parse_match_backend(std::string_view name, MatchBackend& out) noexcept {
  for (const MatchBackend b : {MatchBackend::kHw, MatchBackend::kHashChain, MatchBackend::kGreedy}) {
    if (name == match_backend_name(b)) {
      out = b;
      return true;
    }
  }
  return false;
}

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kBusy: return "BUSY";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kUnsupported: return "UNSUPPORTED";
    case Status::kCorrupt: return "CORRUPT";
    case Status::kTooLarge: return "TOO_LARGE";
    case Status::kInternal: return "INTERNAL";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "?";
}

const char* parse_error_name(ParseError e) noexcept {
  switch (e) {
    case ParseError::kNone: return "none";
    case ParseError::kBadMagic: return "bad magic";
    case ParseError::kBadVersion: return "bad version";
    case ParseError::kBadOpcode: return "bad opcode";
    case ParseError::kBadStatus: return "bad status";
    case ParseError::kOversize: return "oversize payload";
    case ParseError::kBadTrace: return "short trace extension";
  }
  return "?";
}

namespace detail {

bool FrameAccumulator::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != ParseError::kNone) return false;
  if (skip_remaining_ > 0) {
    // A gate-rejected frame's payload is still streaming in: discard it
    // without buffering so a shed 64 MiB COMPRESS costs no memory.
    const std::size_t drop = std::min(skip_remaining_, bytes.size());
    skip_remaining_ -= drop;
    bytes = bytes.subspan(drop);
    if (bytes.empty()) return true;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  validate_prefix();
  return error_ == ParseError::kNone;
}

void FrameAccumulator::validate_prefix() {
  // Check magic and version as soon as those bytes arrive, so a garbage
  // connection is rejected without waiting for a full (possibly huge,
  // possibly never-completing) header.
  while (validated_ < buf_.size() && validated_ < magic_.size()) {
    if (buf_[validated_] != magic_[validated_]) {
      error_ = ParseError::kBadMagic;
      return;
    }
    ++validated_;
  }
  if (validated_ == magic_.size() && buf_.size() > magic_.size()) {
    if (buf_[magic_.size()] != kProtocolVersion) {
      error_ = ParseError::kBadVersion;
      return;
    }
    ++validated_;
  }
}

std::uint32_t FrameAccumulator::payload_length() const noexcept {
  // Both frame kinds store the payload length in the last 4 header bytes.
  return le::get32(buf_.data() + header_size_ - 4);
}

bool FrameAccumulator::header_ready() {
  if (error_ != ParseError::kNone || buf_.size() < header_size_) return false;
  if (!header_checked_) {
    const ParseError e = validate_header(std::span(buf_).first(header_size_));
    if (e != ParseError::kNone) {
      error_ = e;
      return false;
    }
    if (payload_length() > max_payload_) {
      error_ = ParseError::kOversize;
      return false;
    }
    header_checked_ = true;
  }
  return true;
}

bool FrameAccumulator::frame_ready() {
  if (!header_ready()) return false;
  return buf_.size() >= header_size_ + payload_length();
}

void FrameAccumulator::skip_payload() {
  const std::size_t total = header_size_ + payload_length();
  const std::size_t have = std::min(buf_.size(), total);
  skip_remaining_ = total - have;
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(have));
  header_checked_ = false;
  validated_ = 0;
  validate_prefix();  // whatever follows the skipped frame starts a new one
}

std::vector<std::uint8_t> FrameAccumulator::consume_frame(std::size_t payload_offset) {
  const auto total = static_cast<std::ptrdiff_t>(header_size_ + payload_length());
  std::vector<std::uint8_t> payload(buf_.begin() + static_cast<std::ptrdiff_t>(payload_offset),
                                    buf_.begin() + total);
  buf_.erase(buf_.begin(), buf_.begin() + total);
  header_checked_ = false;
  validated_ = 0;
  validate_prefix();  // eagerly re-check whatever of the next frame is buffered
  return payload;
}

}  // namespace detail

RequestParser::RequestParser(std::size_t max_payload) noexcept
    : FrameAccumulator(kRequestMagic, kRequestHeaderSize, max_payload) {}

ParseError RequestParser::validate_header(std::span<const std::uint8_t> header) const {
  if (header[5] > static_cast<std::uint8_t>(Opcode::kVerify))
    return ParseError::kBadOpcode;
  const std::uint16_t flags = le::get16(header.data() + 6);
  if (le::get32(header.data() + 16) < trace_extension_size(flags))
    return ParseError::kBadTrace;
  return ParseError::kNone;
}

std::optional<RequestFrame> RequestParser::next() {
  if (gate_ && !gate_passed_ && header_ready()) {
    // Admission decision at the header, before the payload is buffered.
    const auto hdr = header_bytes();
    RequestFrame f;
    f.opcode = static_cast<Opcode>(hdr[5]);
    f.flags = le::get16(hdr.data() + 6);
    f.id = le::get64(hdr.data() + 8);
    const std::uint32_t len = payload_length();
    if (!gate_(f, len)) {
      skip_payload();
      f.shed = true;
      return f;
    }
    gate_passed_ = true;
  }
  if (!frame_ready()) return std::nullopt;
  gate_passed_ = false;
  const auto bytes = frame_bytes();
  RequestFrame f;
  f.opcode = static_cast<Opcode>(bytes[5]);
  f.flags = le::get16(bytes.data() + 6);
  f.id = le::get64(bytes.data() + 8);
  const std::size_t ext = trace_extension_size(f.flags);  // length >= ext (validated)
  if (ext != 0) f.trace_id = le::get64(bytes.data() + kRequestHeaderSize);
  f.payload = consume_frame(kRequestHeaderSize + ext);
  return f;
}

ResponseParser::ResponseParser(std::size_t max_payload) noexcept
    : FrameAccumulator(kResponseMagic, kResponseHeaderSize, max_payload) {}

ParseError ResponseParser::validate_header(std::span<const std::uint8_t> header) const {
  if (header[5] > static_cast<std::uint8_t>(Status::kDeadlineExceeded))
    return ParseError::kBadStatus;
  const std::uint16_t flags = le::get16(header.data() + 6);
  if (le::get32(header.data() + 20) < trace_extension_size(flags))
    return ParseError::kBadTrace;
  return ParseError::kNone;
}

std::optional<ResponseFrame> ResponseParser::next() {
  if (!frame_ready()) return std::nullopt;
  const auto bytes = frame_bytes();
  ResponseFrame f;
  f.status = static_cast<Status>(bytes[5]);
  f.flags = le::get16(bytes.data() + 6);
  f.id = le::get64(bytes.data() + 8);
  f.adler = le::get32(bytes.data() + 16);
  const std::size_t ext = trace_extension_size(f.flags);  // length >= ext (validated)
  if (ext != 0) f.trace_id = le::get64(bytes.data() + kResponseHeaderSize);
  f.payload = consume_frame(kResponseHeaderSize + ext);
  return f;
}

}  // namespace lzss::server
