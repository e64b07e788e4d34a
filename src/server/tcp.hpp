// Transports for the compression service.
//
// TcpServer is a minimal poll(2)-based front end (POSIX only, no external
// dependencies): one thread multiplexes the listening socket and every
// connection; worker completions land in the per-connection Session outbox
// from arbitrary threads and a self-pipe wakes the poll loop to flush them.
//
// The front end defends itself (TcpServerConfig): connection-count and
// in-flight payload-byte admission, idle / read-progress (slow-loris) /
// write-stall timeouts with typed eviction reasons, a hard write-buffer cap,
// queue-wait-driven brownout shedding of bulky opcodes at the frame header,
// and a bounded graceful drain on stop(). A default config disables all of
// it — the permissive pre-overload behavior.
//
// TcpClient is the matching blocking client used by tools/lzss_client; its
// connection-level failures throw the typed TransportError so callers can
// distinguish retryable transport trouble from protocol violations.
//
// LoopbackClient runs the identical byte path — encode_request → Session →
// RequestParser → Service → encode_response → ResponseParser — entirely
// in-process, so the whole stack is unit-testable without sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "server/service.hpp"
#include "server/session.hpp"

namespace lzss::obs {
class EventLog;
}

namespace lzss::server {

/// Overload-control and connection-lifecycle knobs. Every field's zero value
/// means "off", so a default-constructed config reproduces the historical
/// permissive server exactly.
struct TcpServerConfig {
  int backlog = 64;

  /// Open-connection ceiling; connections beyond it are shed at accept time
  /// (accept + close + count) so the poll set stays bounded. 0 = unlimited.
  std::size_t max_conns = 0;

  /// Evict a connection with no traffic either way and no request in flight
  /// for this long. 0 = never.
  std::uint32_t idle_timeout_ms = 0;

  /// Evict when a started frame makes no parse progress for this long — the
  /// slow-loris defense (a header trickling in at 1 byte/s holds a poll slot
  /// forever otherwise). 0 = never.
  std::uint32_t read_progress_timeout_ms = 0;

  /// Evict when pending response bytes see zero send progress for this long
  /// (peer stopped reading). 0 = never.
  std::uint32_t write_stall_timeout_ms = 0;

  /// Hard cap on a connection's buffered outbound bytes; breaching it evicts
  /// (a stalled reader cannot grow write_buf without bound). 0 = unlimited.
  std::size_t max_write_buf_bytes = 0;

  /// Global budget for admitted-but-uncompleted request payload bytes across
  /// all connections. Frames that would exceed it are shed BUSY at the
  /// header, before their payload is buffered — N concurrent 64 MiB
  /// COMPRESS frames can no longer exhaust memory ahead of the queue's own
  /// BUSY check. Control-plane opcodes are always admitted. 0 = unlimited.
  std::size_t max_inflight_bytes = 0;

  /// Brownout threshold: when the recent-window p99 of server_queue_wait_us
  /// crosses this, bulky opcodes (COMPRESS/DECOMPRESS/COMPRESS_BLOCKED/
  /// LOG_APPEND/LOG_READ) are shed BUSY at the frame header while
  /// PING/STATS/SCRUB/VERIFY keep answering — operators can always see in.
  /// 0 = disabled.
  std::uint64_t brownout_queue_wait_us = 0;

  /// stop(): keep flushing in-flight responses for at most this long before
  /// evicting stragglers (reason "drain_deadline"). 0 = legacy immediate
  /// shutdown (pending responses dropped).
  std::uint32_t drain_deadline_ms = 0;

  /// Optional structured event sink (docs/OBSERVABILITY.md): connection
  /// evictions, accept-time shedding, and brownout transitions are emitted
  /// here in addition to their counters. Not owned; may be null.
  obs::EventLog* events = nullptr;
};

class TcpServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error on failure.
  /// @param port 0 picks an ephemeral port (see port()).
  TcpServer(Service& service, std::uint16_t port, const TcpServerConfig& config);
  TcpServer(Service& service, std::uint16_t port, int backlog = 64)
      : TcpServer(service, port, make_legacy_config(backlog)) {}
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until stop(); call from a dedicated thread. When a drain
  /// deadline is configured, run() keeps flushing pending responses for up
  /// to that long after stop() before returning.
  void run();

  /// Thread-safe and signal-safe (only writes one byte to the wake pipe).
  void stop() noexcept;

  /// Connections accepted so far (observability / tests).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load();
  }

  [[nodiscard]] const TcpServerConfig& config() const noexcept { return config_; }

 private:
  struct Conn {
    std::shared_ptr<Session> session;
    /// Bytes taken from the session; those before write_off are sent. Reset
    /// to empty once drained, so empty() means nothing is left to send.
    std::vector<std::uint8_t> write_buf;
    std::size_t write_off = 0;
    bool peer_closed = false;
    std::size_t admitted_pending = 0;  ///< gate-admitted payload bytes still accumulating
    std::uint64_t frames_done = 0;     ///< requests_seen + frames_shed at last progress check
    bool frame_pending = false;        ///< a partial inbound frame is aging
    bool write_pending = false;        ///< unflushed outbound bytes are aging
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point frame_since;  ///< partial frame started / last advanced
    std::chrono::steady_clock::time_point write_since;  ///< last outbound send progress
  };

  static TcpServerConfig make_legacy_config(int backlog) {
    TcpServerConfig c;
    c.backlog = backlog;
    return c;
  }

  void accept_ready(std::chrono::steady_clock::time_point now);
  void handle_readable(int fd, Conn& conn, std::chrono::steady_clock::time_point now);
  bool flush_writable(int fd, Conn& conn,
                      std::chrono::steady_clock::time_point now);  ///< false when the conn must close
  /// Moves session outbox bytes into write_buf; false when the write cap is
  /// breached (evict with reason "write_overflow").
  bool pump_outbox(Conn& conn, std::chrono::steady_clock::time_point now);
  /// Restarts the read-progress window on frame completion, starts it when a
  /// partial frame appears, clears it when the inbound buffer empties.
  void note_read_progress(Conn& conn, std::chrono::steady_clock::time_point now);
  /// The eviction counter to charge, or nullptr when the connection may live.
  [[nodiscard]] obs::Counter* timeout_reason(const Conn& conn,
                                             std::chrono::steady_clock::time_point now) const;
  /// Admission gate (runs on the poll thread, via the session's parser).
  bool admit_frame(Conn& conn, const RequestFrame& header, std::uint32_t payload_len);
  /// Recomputes the recent-window queue-wait p99 and flips brownout state.
  void refresh_brownout(std::chrono::steady_clock::time_point now);
  /// Post-stop bounded flush of pending responses.
  void drain();
  /// Structured-event companion to the eviction/shed counters (no-op when
  /// config_.events is null).
  void emit_conn_event(const char* event, const char* reason, std::int64_t count = 1);
  /// Maps an eviction counter back to its `reason` label for events.
  [[nodiscard]] const char* evict_reason_name(const obs::Counter* reason) const noexcept;
  [[nodiscard]] int poll_timeout_ms() const noexcept;
  void close_conn(int fd);
  void wake() noexcept;

  Service& service_;
  TcpServerConfig config_;
  int listen_fd_ = -1;
  int reserve_fd_ = -1;  ///< sacrificial fd, closed to recover from EMFILE
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::uint64_t next_session_id_ = 1;
  std::map<int, Conn> conns_;

  // Brownout window state (poll thread only).
  obs::Histogram::Merged brownout_prev_{};
  std::chrono::steady_clock::time_point brownout_last_check_{};
  bool brownout_active_ = false;

  // Metrics (bound to the service's registry in the constructor).
  obs::Gauge* conns_open_g_;
  obs::Gauge* inflight_bytes_g_;
  obs::Gauge* inflight_requests_g_;
  obs::Gauge* brownout_g_;
  obs::Counter* accepted_c_;
  obs::Counter* accept_errors_c_;
  obs::Counter* brownout_entered_c_;
  obs::Counter* evicted_idle_c_;
  obs::Counter* evicted_slow_read_c_;
  obs::Counter* evicted_write_stall_c_;
  obs::Counter* evicted_write_overflow_c_;
  obs::Counter* evicted_drain_c_;
  obs::Counter* shed_max_conns_c_;
  obs::Counter* shed_fd_exhausted_c_;
  obs::Counter* frames_shed_brownout_c_;
  obs::Counter* frames_shed_inflight_c_;
};

/// Typed connection-level failure from TcpClient: the class of errors a
/// client can reasonably retry after a reconnect (the server may have shed
/// or evicted us under load), as opposed to protocol violations which stay
/// plain std::runtime_error.
class TransportError : public std::runtime_error {
 public:
  enum class Kind {
    kConnect,            ///< resolve / connect failed (server down or refusing)
    kReset,              ///< send/recv syscall error (ECONNRESET, EPIPE, ...)
    kClosedMidResponse,  ///< orderly close before a complete response (eviction, drain)
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] const char* transport_error_kind_name(TransportError::Kind kind) noexcept;

/// Blocking request/response client over TCP.
class TcpClient {
 public:
  /// Connects immediately; throws TransportError(kConnect) on failure.
  TcpClient(const std::string& host, std::uint16_t port);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends one request and blocks for its response. Connection-level
  /// failures throw TransportError; protocol violations throw
  /// std::runtime_error (application-level failures arrive as resp.status).
  [[nodiscard]] ResponseFrame call(const RequestFrame& request);

 private:
  int fd_ = -1;
  ResponseParser parser_;
};

/// In-process transport: full wire encode/parse round trip against a Service,
/// no sockets. Thread-safe — concurrent call()s are independent.
class LoopbackClient {
 public:
  explicit LoopbackClient(Service& service) noexcept : service_(service) {}

  [[nodiscard]] ResponseFrame call(const RequestFrame& request);

 private:
  Service& service_;
};

}  // namespace lzss::server
