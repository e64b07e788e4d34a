// Wire framing for the compression service.
//
// The service speaks a length-prefixed binary protocol over any byte
// transport (TCP, or the in-process loopback). Two frame kinds, both
// little-endian, both with a fixed header followed by a payload:
//
//   request  (20-byte header)          response (24-byte header)
//   ----------------------------       ----------------------------
//   0   magic   "LZRQ"                 0   magic   "LZRS"
//   4   version (1)                    4   version (1)
//   5   opcode                         5   status
//   6   flags   u16                    6   flags   u16 (echoed)
//   8   id      u64                    8   id      u64 (echoed)
//   16  length  u32                    16  adler   u32 (Adler-32, see below)
//   20  payload                        20  length  u32
//                                      24  payload
//
// Flags: bit 0 selects the compressed container (0 = zlib/RFC 1950,
// 1 = raw LZSS "LZS1"); bit 2 (kFlagTraced) marks a traced frame — the
// payload is prefixed with an 8-byte LE trace id, stripped by the parser
// into RequestFrame/ResponseFrame::trace_id (`length` counts the prefix).
// Old peers never set the bit, so they are unaffected; the server echoes
// the bit and the id so a client can print its own request's trace.
// Bits 8..15 carry a preset id (0 = the service default, 1..N = estimator
// presets in standard_presets() order). The response's adler field is the
// Adler-32 of the *uncompressed* data: the original input for COMPRESS,
// the reconstructed output for DECOMPRESS — so a client can verify a
// round trip without inflating.
//
// Parsing is incremental and strict: bad magic, unknown version/opcode/
// status, and lengths beyond kMaxPayload poison the parser (a typed
// ParseError, never UB), which is the transport's cue to answer
// BAD_REQUEST and drop the connection. Truncated frames simply wait for
// more bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace lzss::server {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// Hard cap on a single frame's payload; larger lengths are a protocol error.
inline constexpr std::uint32_t kMaxPayload = 64u * 1024 * 1024;

inline constexpr std::size_t kRequestHeaderSize = 20;
inline constexpr std::size_t kResponseHeaderSize = 24;

enum class Opcode : std::uint8_t {
  kPing = 0,
  kCompress = 1,
  kDecompress = 2,
  kStats = 3,
  kLogAppend = 4,  ///< durable log store: payload = record; replies 8-byte LE sequence
  kLogRead = 5,    ///< durable log store: payload = 8-byte LE sequence; replies record
  kCompressBlocked = 6,  ///< block-parallel compress: replies an LZBC container whose
                         ///< blocks fanned out across the worker pool (docs/CONTAINER.md);
                         ///< DECOMPRESS sniffs the LZBC magic and inverts it in parallel
  kScrub = 7,   ///< online integrity walk over the store's sealed segments; empty
                ///< payload = all, 8-byte LE id = one segment; replies a JSON summary
  kVerify = 8,  ///< checksum-only verification, no payload back: a container (LZBC /
                ///< zlib / raw LZS1) by default, or a stored record range when flags
                ///< bit 1 (kFlagVerifyStore) is set (payload = two LE u64: first, count)
};

/// Number of opcodes (per-opcode counter array size).
inline constexpr std::size_t kOpcodeCount = 9;

enum class Status : std::uint8_t {
  kOk = 0,
  kBusy = 1,         ///< bounded queue full — retry later
  kBadRequest = 2,   ///< malformed frame / unusable parameters
  kUnsupported = 3,  ///< unknown preset id
  kCorrupt = 4,      ///< DECOMPRESS payload failed to parse or checksum
  kTooLarge = 5,     ///< payload exceeds the service's limit
  kInternal = 6,     ///< unexpected server-side failure
  kDeadlineExceeded = 7,  ///< request timed out in queue or on a hung worker
};

enum class ParseError : std::uint8_t {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadOpcode,
  kBadStatus,
  kOversize,
  kBadTrace,  ///< kFlagTraced set but the payload is too short for the id
};

/// Container selector in flags bit 0.
inline constexpr std::uint16_t kFlagRawContainer = 0x0001;
/// VERIFY target selector in flags bit 1: 0 = the request payload is a
/// container to checksum, 1 = the payload names a stored record range.
inline constexpr std::uint16_t kFlagVerifyStore = 0x0002;
/// Trace-context extension in flags bit 2: the payload carries an 8-byte LE
/// trace id prefix (stripped at parse time into the frame's trace_id).
inline constexpr std::uint16_t kFlagTraced = 0x0004;
/// COMPRESS match-finder backend selector in flags bits 3..5 (see
/// docs/MATCHFINDER.md): kMatchFinderPolicy or a MatchBackend value. Every
/// other selector answers UNSUPPORTED, including 3, which named the retired
/// suffix-array backend.
inline constexpr unsigned kFlagMatchFinderShift = 3;
inline constexpr std::uint16_t kFlagMatchFinderMask = 0x0038;
inline constexpr std::uint8_t kMatchFinderPolicy = 0;  ///< the service's configured backend

/// COMPRESS match source; each value is its wire selector. kHw emits the
/// cycle-accurate hardware model's tokens (served by its functional twin,
/// with the model itself on census samples); the software backends run the
/// MatchFinderEncoder.
enum class MatchBackend : std::uint8_t {
  kHw = 1,
  kHashChain = 2,  ///< core::MatchFinderKind::kHashChain
  kGreedy = 4,     ///< core::MatchFinderKind::kGreedy
};

[[nodiscard]] const char* match_backend_name(MatchBackend backend) noexcept;
/// Parses hw|hashchain|greedy; false (leaving @p out untouched) on unknown names.
[[nodiscard]] bool parse_match_backend(std::string_view name, MatchBackend& out) noexcept;

[[nodiscard]] constexpr std::uint16_t flags_with_matchfinder(std::uint16_t flags,
                                                             std::uint8_t selector) noexcept {
  return static_cast<std::uint16_t>(
      (flags & ~kFlagMatchFinderMask) |
      ((std::uint16_t{selector} << kFlagMatchFinderShift) & kFlagMatchFinderMask));
}
[[nodiscard]] constexpr std::uint8_t matchfinder_of_flags(std::uint16_t flags) noexcept {
  return static_cast<std::uint8_t>((flags & kFlagMatchFinderMask) >> kFlagMatchFinderShift);
}

/// Wire bytes the trace extension prepends to the payload.
[[nodiscard]] constexpr std::size_t trace_extension_size(std::uint16_t flags) noexcept {
  return (flags & kFlagTraced) != 0 ? 8 : 0;
}

[[nodiscard]] constexpr std::uint16_t flags_with_preset(std::uint16_t flags,
                                                        std::uint8_t preset_id) noexcept {
  return static_cast<std::uint16_t>((flags & 0x00FF) | (std::uint16_t{preset_id} << 8));
}
[[nodiscard]] constexpr std::uint8_t preset_of_flags(std::uint16_t flags) noexcept {
  return static_cast<std::uint8_t>(flags >> 8);
}

struct RequestFrame {
  std::uint64_t id = 0;
  Opcode opcode = Opcode::kPing;
  std::uint16_t flags = 0;
  /// Set by RequestParser when an admission gate rejected the frame at the
  /// header: the payload was discarded without buffering and `payload` is
  /// empty. The transport answers BUSY instead of dispatching. Never set on
  /// frames that reach the service.
  bool shed = false;
  /// Trace id carried by the kFlagTraced extension (0 = none). Not part of
  /// `payload`; the parser strips the wire prefix. On gate-shed frames the
  /// payload (and therefore the id) was never buffered, so this stays 0.
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> payload;
};

struct ResponseFrame {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::uint16_t flags = 0;
  std::uint32_t adler = 0;
  /// Echoed trace id (kFlagTraced extension; 0 = none).
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] std::vector<std::uint8_t> encode_request(const RequestFrame& frame);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const ResponseFrame& frame);

[[nodiscard]] const char* opcode_name(Opcode op) noexcept;
[[nodiscard]] const char* status_name(Status s) noexcept;
[[nodiscard]] const char* parse_error_name(ParseError e) noexcept;

namespace detail {

/// Shared incremental machinery: accumulates transport bytes, validates the
/// header prefix eagerly (bad magic is detected after 4 bytes, not after a
/// full header), and extracts complete frames. The request/response parsers
/// below supply the header geometry and field validation.
class FrameAccumulator {
 public:
  FrameAccumulator(std::span<const std::uint8_t> magic, std::size_t header_size,
                   std::size_t max_payload) noexcept
      : magic_(magic), header_size_(header_size), max_payload_(max_payload) {}

  /// Returns false (and ignores the bytes) once the stream is poisoned.
  bool feed(std::span<const std::uint8_t> bytes);

  /// True when a full header + payload is buffered and validated.
  [[nodiscard]] bool frame_ready();

  [[nodiscard]] ParseError error() const noexcept { return error_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }
  /// Payload bytes of a skipped (gate-rejected) frame still expected on the
  /// wire; they are discarded as they arrive, never buffered.
  [[nodiscard]] std::size_t skip_remaining() const noexcept { return skip_remaining_; }

 protected:
  /// Header-field validation hook; called once per frame when the full
  /// header is available. Returns kNone to accept.
  [[nodiscard]] virtual ParseError validate_header(std::span<const std::uint8_t> header) const = 0;
  virtual ~FrameAccumulator() = default;

  /// True when the pending frame's full header is buffered and validated —
  /// the payload may still be in flight. This is the admission-gate hook:
  /// decide accept/shed here, before payload bytes are ever buffered.
  [[nodiscard]] bool header_ready();

  /// Drops the pending frame without buffering its payload: the buffered
  /// header (and any payload prefix) is erased, and the not-yet-arrived
  /// remainder of the payload is discarded byte-for-byte by future feed()
  /// calls. Only valid after header_ready().
  void skip_payload();

  /// Consumes the ready frame and returns its bytes from @p payload_offset
  /// (counted from the frame's start) to its end; only valid after
  /// frame_ready(), with @p payload_offset at most the frame's size.
  [[nodiscard]] std::vector<std::uint8_t> consume_frame(std::size_t payload_offset);

  /// The buffered header bytes; only valid after header_ready().
  [[nodiscard]] std::span<const std::uint8_t> header_bytes() const noexcept {
    return {buf_.data(), header_size_};
  }

  /// The ready frame's bytes, header and payload; only valid after
  /// frame_ready(), and only until consume_frame().
  [[nodiscard]] std::span<const std::uint8_t> frame_bytes() const noexcept {
    return {buf_.data(), header_size_ + payload_length()};
  }

  [[nodiscard]] std::uint32_t payload_length() const noexcept;

 private:
  void validate_prefix();

  std::span<const std::uint8_t> magic_;
  std::size_t header_size_;
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t validated_ = 0;       ///< prefix bytes already checked
  std::size_t skip_remaining_ = 0;  ///< bytes to discard before buffering resumes
  bool header_checked_ = false;     ///< validate_header ran for the pending frame
  ParseError error_ = ParseError::kNone;
};

}  // namespace detail

/// Incremental request parser (server side).
class RequestParser final : public detail::FrameAccumulator {
 public:
  explicit RequestParser(std::size_t max_payload = kMaxPayload) noexcept;

  /// Admission gate, consulted once per frame as soon as the 20-byte header
  /// is buffered — before any payload byte is. `header` carries the decoded
  /// id/opcode/flags (payload empty); `payload_len` is the frame's declared
  /// length. Return true to admit (the payload is then buffered normally),
  /// false to shed: the payload is discarded as it streams in and next()
  /// yields the frame once with `shed = true` so the transport can answer
  /// BUSY. The gate runs on the transport thread.
  using Gate = std::function<bool(const RequestFrame& header, std::uint32_t payload_len)>;
  void set_gate(Gate gate) { gate_ = std::move(gate); }

  /// Extracts the next complete frame, or nullopt (need more bytes / error).
  [[nodiscard]] std::optional<RequestFrame> next();

 protected:
  [[nodiscard]] ParseError validate_header(std::span<const std::uint8_t> header) const override;

 private:
  Gate gate_;
  bool gate_passed_ = false;  ///< the pending frame was admitted by the gate
};

/// Incremental response parser (client side).
class ResponseParser final : public detail::FrameAccumulator {
 public:
  explicit ResponseParser(std::size_t max_payload = kMaxPayload) noexcept;
  [[nodiscard]] std::optional<ResponseFrame> next();

 protected:
  [[nodiscard]] ParseError validate_header(std::span<const std::uint8_t> header) const override;
};

}  // namespace lzss::server
