#include "server/session.hpp"

#include <utility>

#include "fault/fault.hpp"

namespace lzss::server {

void Session::on_bytes(std::span<const std::uint8_t> bytes) {
  if (closed_) return;
  parser_.feed(bytes);
  while (auto frame = parser_.next()) {
    if (frame->shed) {
      // The admission gate refused the frame at its header; the payload is
      // being discarded unbuffered. BUSY is the existing retryable answer —
      // well-behaved clients back off exactly as for a full queue.
      ++frames_shed_;
      ResponseFrame busy;
      busy.id = frame->id;
      busy.flags = frame->flags;
      busy.status = Status::kBusy;
      enqueue_response(busy);
      continue;
    }
    ++requests_seen_;
    handler_(std::move(*frame));
  }
  if (parser_.error() != ParseError::kNone) {
    // Protocol violation: one terminal error response, then the transport
    // drops us. The id is 0 because the offending frame never parsed.
    ResponseFrame err;
    err.status = ParseError::kOversize == parser_.error() ? Status::kTooLarge
                                                          : Status::kBadRequest;
    enqueue_response(err);
    closed_ = true;
  }
}

void Session::enqueue_response(const ResponseFrame& response) {
  auto bytes = encode_response(response);
  // Wire-level corruption point: flips bits in the serialized frame, which
  // is what a faulty link (or a buggy peer) hands the client-side parser.
  fault::corrupt("server.session.egress", bytes);
  responses_enqueued_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(out_mutex_);
  // An empty outbox takes the encoded frame's buffer instead of a copy.
  if (outbox_.empty()) {
    outbox_ = std::move(bytes);
  } else {
    outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
  }
}

std::vector<std::uint8_t> Session::take_outgoing() {
  const std::lock_guard<std::mutex> lock(out_mutex_);
  std::vector<std::uint8_t> out;
  out.swap(outbox_);
  return out;
}

bool Session::has_outgoing() const {
  const std::lock_guard<std::mutex> lock(out_mutex_);
  return !outbox_.empty();
}

}  // namespace lzss::server
