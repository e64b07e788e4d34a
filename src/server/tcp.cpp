#include "server/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "obs/event_log.hpp"

namespace lzss::server {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error("fcntl(O_NONBLOCK) failed");
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

[[noreturn]] void throw_transport(TransportError::Kind kind, const char* what) {
  throw TransportError(kind, std::string(what) + ": " + std::strerror(errno));
}

/// Opcodes whose payloads are worth shedding under pressure. The
/// control plane (PING/STATS/SCRUB/VERIFY) is never shed by brownout so
/// operators can always see in; their payloads are small or bounded.
bool is_bulky(Opcode op) noexcept {
  switch (op) {
    case Opcode::kCompress:
    case Opcode::kDecompress:
    case Opcode::kCompressBlocked:
    case Opcode::kLogAppend:
    case Opcode::kLogRead:
      return true;
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kScrub:
    case Opcode::kVerify:
      return false;
  }
  return true;
}

}  // namespace

// --------------------------------------------------------------------------
// TcpServer

TcpServer::TcpServer(Service& service, std::uint16_t port, const TcpServerConfig& config)
    : service_(service), config_(config) {
  auto& m = service_.metrics();
  conns_open_g_ = &m.gauge("server_conns_open");
  inflight_bytes_g_ = &m.gauge("server_inflight_bytes");
  inflight_requests_g_ = &m.gauge("server_inflight_requests");
  brownout_g_ = &m.gauge("server_brownout_active");
  accepted_c_ = &m.counter("server_conns_accepted_total");
  accept_errors_c_ = &m.counter("server_accept_errors_total");
  brownout_entered_c_ = &m.counter("server_brownout_entered_total");
  evicted_idle_c_ = &m.counter("server_conns_evicted_total", {{"reason", "idle"}});
  evicted_slow_read_c_ = &m.counter("server_conns_evicted_total", {{"reason", "slow_read"}});
  evicted_write_stall_c_ = &m.counter("server_conns_evicted_total", {{"reason", "write_stall"}});
  evicted_write_overflow_c_ =
      &m.counter("server_conns_evicted_total", {{"reason", "write_overflow"}});
  evicted_drain_c_ = &m.counter("server_conns_evicted_total", {{"reason", "drain_deadline"}});
  shed_max_conns_c_ = &m.counter("server_conns_shed_total", {{"reason", "max_conns"}});
  shed_fd_exhausted_c_ = &m.counter("server_conns_shed_total", {{"reason", "fd_exhausted"}});
  frames_shed_brownout_c_ = &m.counter("server_frames_shed_total", {{"reason", "brownout"}});
  frames_shed_inflight_c_ =
      &m.counter("server_frames_shed_total", {{"reason", "inflight_budget"}});

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    throw_errno("bind");
  }
  if (::listen(listen_fd_, config_.backlog) < 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(listen_fd_);
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    throw_errno("pipe");
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  // A sacrificial fd: under EMFILE we close it, accept+close the pending
  // connection (so the peer gets a clean RST/EOF instead of hanging in the
  // backlog), then re-open it. Best-effort — the server works without it.
  reserve_fd_ = ::open("/dev/null", O_RDONLY);
}

TcpServer::~TcpServer() {
  stop();
  // Drain the worker pool before tearing down: in-flight completions capture
  // `this` (for wake()) and the sessions; they must all fire first.
  service_.stop();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void TcpServer::stop() noexcept {
  stopping_.store(true);
  wake();
}

void TcpServer::wake() noexcept {
  const char b = 'w';
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &b, 1);
}

void TcpServer::emit_conn_event(const char* event, const char* reason, std::int64_t count) {
  if (config_.events == nullptr) return;
  config_.events->emit(obs::EventLevel::kWarn, "tcp", event,
                       {obs::EventLog::str("reason", reason), obs::EventLog::num("count", count)});
}

const char* TcpServer::evict_reason_name(const obs::Counter* reason) const noexcept {
  if (reason == evicted_idle_c_) return "idle";
  if (reason == evicted_slow_read_c_) return "slow_read";
  if (reason == evicted_write_stall_c_) return "write_stall";
  if (reason == evicted_write_overflow_c_) return "write_overflow";
  if (reason == evicted_drain_c_) return "drain_deadline";
  return "?";
}

bool TcpServer::admit_frame(Conn& conn, const RequestFrame& header, std::uint32_t payload_len) {
  if (is_bulky(header.opcode)) {
    if (brownout_active_) {
      frames_shed_brownout_c_->add(1);
      return false;
    }
    if (config_.max_inflight_bytes != 0 &&
        static_cast<std::uint64_t>(std::max<std::int64_t>(inflight_bytes_g_->value(), 0)) +
                payload_len >
            config_.max_inflight_bytes) {
      frames_shed_inflight_c_->add(1);
      return false;
    }
  }
  inflight_bytes_g_->add(static_cast<std::int64_t>(payload_len));
  conn.admitted_pending += payload_len;
  return true;
}

void TcpServer::accept_ready(Clock::time_point now) {
  for (;;) {
    if (fault::fires("server.tcp.accept_fail")) {
      // Injected accept() failure (an EMFILE storm without actually
      // exhausting the process's fd table).
      accept_errors_c_->add(1);
      return;
    }
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog drained
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // fd/memory exhaustion: shed one pending connection cleanly via the
        // reserve fd so the backlog drains instead of wedging, then stop
        // accepting this round.
        accept_errors_c_->add(1);
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
          const int shed = ::accept(listen_fd_, nullptr, nullptr);
          if (shed >= 0) {
            ::close(shed);
            shed_fd_exhausted_c_->add(1);
            emit_conn_event("conn_shed", "fd_exhausted");
          }
          reserve_fd_ = ::open("/dev/null", O_RDONLY);
        }
        return;
      }
      // Transient per-connection errors (ECONNABORTED, EPROTO, ...): count
      // and keep accepting — one aborted handshake must not stall the rest
      // of the backlog.
      accept_errors_c_->add(1);
      continue;
    }

    if (config_.max_conns != 0 && conns_.size() >= config_.max_conns) {
      ::close(cfd);
      shed_max_conns_c_->add(1);
      emit_conn_event("conn_shed", "max_conns");
      continue;
    }

    set_nonblocking(cfd);
    auto session = std::make_shared<Session>(next_session_id_++, nullptr);
    std::weak_ptr<Session> weak = session;
    auto [it, inserted] = conns_.emplace(cfd, Conn{});
    Conn& conn = it->second;
    conn.session = std::move(session);
    conn.last_activity = now;
    conn.frame_since = now;
    conn.write_since = now;
    // std::map nodes are stable, and the gate/handler only run from
    // on_bytes on this thread while the connection is in the map — the raw
    // Conn* cannot dangle.
    Conn* cp = &conn;
    conn.session->set_gate([this, cp](const RequestFrame& header, std::uint32_t payload_len) {
      return admit_frame(*cp, header, payload_len);
    });
    conn.session->set_handler([this, weak, cp](RequestFrame&& frame) {
      // The gate admitted the wire payload length, which counts the 8-byte
      // trace-id prefix; the parser has since stripped it into trace_id, so
      // add it back or the inflight gauge leaks per traced request.
      const std::size_t len = frame.payload.size() + trace_extension_size(frame.flags);
      cp->admitted_pending -= std::min(cp->admitted_pending, len);
      inflight_requests_g_->add(1);
      service_.submit(std::move(frame), [this, weak, len](ResponseFrame&& resp) {
        if (const auto sp = weak.lock()) sp->enqueue_response(resp);
        // Release the budget and wake even when the session died first —
        // the gauges must balance regardless of connection fate.
        inflight_bytes_g_->add(-static_cast<std::int64_t>(len));
        inflight_requests_g_->add(-1);
        wake();
      });
    });
    conns_open_g_->add(1);
    accepted_c_->add(1);
    connections_accepted_.fetch_add(1);
  }
}

void TcpServer::handle_readable(int fd, Conn& conn, Clock::time_point now) {
  if (fault::fires("server.tcp.abort")) {
    // Injected connection abort: the peer sees an unannounced close, which
    // is exactly what a crashed server or a dropped link looks like.
    conn.peer_closed = true;
    return;
  }
  std::uint8_t buf[64 * 1024];
  for (;;) {
    // Slow-reader point: the server ingests one byte per poll round, so an
    // armed connection looks exactly like a peer trickling its frame in.
    const bool crawl = fault::fires("server.tcp.slow_reader");
    const ssize_t n = ::recv(fd, buf, crawl ? 1 : sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity = now;
      conn.session->on_bytes(std::span(buf, static_cast<std::size_t>(n)));
      if (conn.session->closed()) return;  // poisoned: stop reading, flush the error
      if (crawl) return;
      continue;
    }
    if (n == 0) {
      conn.peer_closed = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.peer_closed = true;
    return;
  }
}

bool TcpServer::flush_writable(int fd, Conn& conn, Clock::time_point now) {
  // Stalled-writer point: pretend the socket buffer is full (EAGAIN) so the
  // write-stall timeout is the only way out.
  if (fault::fires("server.tcp.stalled_writer")) return true;
  while (!conn.write_buf.empty()) {
    if (fault::fires("server.tcp.abort")) return false;
    // Partial-write point: squeezing the frame out one byte at a time
    // exercises every client-side reassembly path.
    const std::size_t chunk =
        fault::fires("server.tcp.short_write") ? 1 : conn.write_buf.size();
    const ssize_t n = ::send(fd, conn.write_buf.data(), chunk, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_buf.erase(conn.write_buf.begin(), conn.write_buf.begin() + n);
      conn.write_since = now;  // progress restarts the stall window
      conn.last_activity = now;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // broken pipe etc.
  }
  conn.write_pending = false;
  return true;
}

bool TcpServer::pump_outbox(Conn& conn, Clock::time_point now) {
  if (conn.session->has_outgoing()) {
    auto bytes = conn.session->take_outgoing();
    if (conn.write_buf.empty()) {
      // Nothing queued: take the outbox's buffer instead of copying it.
      if (!bytes.empty()) {
        conn.write_pending = true;
        conn.write_since = now;
      }
      conn.write_buf = std::move(bytes);
    } else {
      conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
    }
  }
  return config_.max_write_buf_bytes == 0 ||
         conn.write_buf.size() <= config_.max_write_buf_bytes;
}

void TcpServer::note_read_progress(Conn& conn, Clock::time_point now) {
  const std::uint64_t done = conn.session->requests_seen() + conn.session->frames_shed();
  const std::size_t buffered = conn.session->inbound_buffered();
  if (done != conn.frames_done || buffered == 0) {
    // A frame completed (or the buffer emptied): restart the window.
    conn.frames_done = done;
    conn.frame_pending = buffered > 0;
    conn.frame_since = now;
  } else if (!conn.frame_pending) {
    // First bytes of a new frame: start aging it.
    conn.frame_pending = true;
    conn.frame_since = now;
  }
}

obs::Counter* TcpServer::timeout_reason(const Conn& conn, Clock::time_point now) const {
  using std::chrono::milliseconds;
  if (config_.read_progress_timeout_ms != 0 && conn.frame_pending &&
      now - conn.frame_since >= milliseconds(config_.read_progress_timeout_ms))
    return evicted_slow_read_c_;
  if (config_.write_stall_timeout_ms != 0 && conn.write_pending &&
      now - conn.write_since >= milliseconds(config_.write_stall_timeout_ms))
    return evicted_write_stall_c_;
  if (config_.idle_timeout_ms != 0 && !conn.frame_pending && !conn.write_pending) {
    // Idle means *nothing* is happening: no partial frame, no pending
    // output, and no request in flight (a long compress is the server's
    // slowness, not the client's).
    const std::uint64_t outstanding = conn.session->requests_seen() +
                                      conn.session->frames_shed() -
                                      conn.session->responses_enqueued();
    if (outstanding == 0 && now - conn.last_activity >= milliseconds(config_.idle_timeout_ms))
      return evicted_idle_c_;
  }
  return nullptr;
}

void TcpServer::refresh_brownout(Clock::time_point now) {
  if (config_.brownout_queue_wait_us == 0) return;
  if (brownout_last_check_ != Clock::time_point{} &&
      now - brownout_last_check_ < std::chrono::milliseconds(100))
    return;
  brownout_last_check_ = now;
  const auto cur = service_.queue_wait_histogram().merged();
  // Quantile over the samples recorded since the last check — a windowed
  // recent p99, not the process-lifetime one (which would never recover).
  obs::Histogram::Merged delta{};
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < cur.counts.size(); ++i) {
    delta.counts[i] = cur.counts[i] - brownout_prev_.counts[i];
    count += delta.counts[i];
  }
  delta.count = count;
  brownout_prev_ = cur;
  const bool hot = count > 0 && delta.quantile(0.99) >= config_.brownout_queue_wait_us;
  if (hot != brownout_active_) {
    brownout_active_ = hot;
    brownout_g_->set(hot ? 1 : 0);
    if (hot) brownout_entered_c_->add(1);
    if (config_.events != nullptr) {
      config_.events->emit(
          hot ? obs::EventLevel::kWarn : obs::EventLevel::kInfo, "tcp",
          hot ? "brownout_entered" : "brownout_exited",
          {obs::EventLog::num("queue_wait_p99_us", static_cast<std::int64_t>(
                                                       count > 0 ? delta.quantile(0.99) : 0)),
           obs::EventLog::num("threshold_us",
                              static_cast<std::int64_t>(config_.brownout_queue_wait_us))});
    }
  }
}

int TcpServer::poll_timeout_ms() const noexcept {
  // Infinite when no deadline-driven feature is on: identical wakeup
  // behavior to the pre-overload server. Otherwise tick at a quarter of the
  // tightest timeout (clamped) so detection lag stays proportional.
  std::uint32_t tick = UINT32_MAX;
  const auto consider = [&tick](std::uint32_t timeout) {
    if (timeout != 0) tick = std::min(tick, std::max(timeout / 4, 5u));
  };
  consider(config_.idle_timeout_ms);
  consider(config_.read_progress_timeout_ms);
  consider(config_.write_stall_timeout_ms);
  if (config_.brownout_queue_wait_us != 0) tick = std::min(tick, 100u);
  if (tick == UINT32_MAX) return -1;
  return static_cast<int>(std::min(tick, 250u));
}

void TcpServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it != conns_.end()) {
    // An admitted frame that will never finish arriving must hand back its
    // inflight budget.
    inflight_bytes_g_->add(-static_cast<std::int64_t>(it->second.admitted_pending));
    conns_open_g_->add(-1);
    conns_.erase(it);
  }
  ::close(fd);
}

void TcpServer::run() {
  std::vector<pollfd> fds;
  while (!stopping_.load()) {
    const auto now = Clock::now();
    refresh_brownout(now);

    // Move completed responses from the sessions into the write buffers so
    // POLLOUT interest is accurate; enforce the write cap and timeouts.
    std::vector<std::pair<int, obs::Counter*>> to_evict;
    const bool timeouts_on = config_.idle_timeout_ms != 0 ||
                             config_.read_progress_timeout_ms != 0 ||
                             config_.write_stall_timeout_ms != 0;
    for (auto& [fd, conn] : conns_) {
      if (!pump_outbox(conn, now)) {
        to_evict.emplace_back(fd, evicted_write_overflow_c_);
        continue;
      }
      if (timeouts_on) {
        if (obs::Counter* reason = timeout_reason(conn, now)) to_evict.emplace_back(fd, reason);
      }
    }
    for (const auto& [fd, reason] : to_evict) {
      reason->add(1);
      emit_conn_event("conn_evicted", evict_reason_name(reason));
      close_conn(fd);
    }

    fds.clear();
    pollfd p{};
    p.fd = wake_pipe_[0];
    p.events = POLLIN;
    fds.push_back(p);
    p.fd = listen_fd_;
    fds.push_back(p);
    for (auto& [fd, conn] : conns_) {
      p.fd = fd;
      p.events = POLLIN;
      if (!conn.write_buf.empty()) p.events |= POLLOUT;
      fds.push_back(p);
    }

    if (::poll(fds.data(), fds.size(), poll_timeout_ms()) < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    const auto after = Clock::now();

    if ((fds[0].revents & POLLIN) != 0) {
      char drain_buf[256];
      while (::read(wake_pipe_[0], drain_buf, sizeof(drain_buf)) > 0) {
      }
    }

    if ((fds[1].revents & POLLIN) != 0) accept_ready(after);

    std::vector<int> to_close;
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool dead = false;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) conn.peer_closed = true;
      if ((fds[i].revents & POLLIN) != 0 && !conn.peer_closed) {
        handle_readable(fd, conn, after);
        note_read_progress(conn, after);
      }
      if ((fds[i].revents & POLLOUT) != 0 || !conn.write_buf.empty()) {
        if (!pump_outbox(conn, after)) {
          evicted_write_overflow_c_->add(1);
          emit_conn_event("conn_evicted", "write_overflow");
          dead = true;
        } else if (!flush_writable(fd, conn, after)) {
          dead = true;
        }
      }
      const bool drained = conn.write_buf.empty() && !conn.session->has_outgoing();
      if (dead || conn.peer_closed || (conn.session->closed() && drained)) to_close.push_back(fd);
    }
    for (const int fd : to_close) close_conn(fd);
  }
  drain();
}

void TcpServer::drain() {
  if (config_.drain_deadline_ms == 0) return;
  const auto deadline = Clock::now() + std::chrono::milliseconds(config_.drain_deadline_ms);
  std::vector<pollfd> fds;
  for (;;) {
    const auto now = Clock::now();
    // No new reads, no new accepts: just flush what the workers owe.
    std::vector<int> to_close;
    for (auto& [fd, conn] : conns_) {
      if (!pump_outbox(conn, now)) {
        evicted_write_overflow_c_->add(1);
        emit_conn_event("conn_evicted", "write_overflow");
        to_close.push_back(fd);
        continue;
      }
      if (conn.peer_closed) {
        to_close.push_back(fd);
        continue;
      }
      if (!conn.write_buf.empty() && !flush_writable(fd, conn, now)) to_close.push_back(fd);
    }
    for (const int fd : to_close) close_conn(fd);

    bool pending = inflight_requests_g_->value() > 0;
    if (!pending) {
      for (auto& [fd, conn] : conns_) {
        if (!conn.write_buf.empty() || conn.session->has_outgoing()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) return;

    if (now >= deadline) break;

    fds.clear();
    pollfd p{};
    p.fd = wake_pipe_[0];
    p.events = POLLIN;
    fds.push_back(p);
    for (auto& [fd, conn] : conns_) {
      p.fd = fd;
      p.events = conn.write_buf.empty() ? 0 : POLLOUT;
      fds.push_back(p);
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    const int wait = static_cast<int>(std::clamp<long long>(left, 1, 50));
    if (::poll(fds.data(), fds.size(), wait) < 0 && errno != EINTR) break;
    if ((fds[0].revents & POLLIN) != 0) {
      char drain_buf[256];
      while (::read(wake_pipe_[0], drain_buf, sizeof(drain_buf)) > 0) {
      }
    }
    std::size_t i = 1;
    for (auto& [fd, conn] : conns_) {
      if (i < fds.size() && (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0)
        conn.peer_closed = true;
      ++i;
    }
  }
  // Deadline expired with responses still owed: a stalled peer does not get
  // to hold shutdown hostage.
  std::int64_t stragglers = 0;
  for (auto& [fd, conn] : conns_) {
    if (!conn.write_buf.empty() || conn.session->has_outgoing()) {
      evicted_drain_c_->add(1);
      ++stragglers;
    }
  }
  if (stragglers > 0) emit_conn_event("conn_evicted", "drain_deadline", stragglers);
}

// --------------------------------------------------------------------------
// TcpClient

const char* transport_error_kind_name(TransportError::Kind kind) noexcept {
  switch (kind) {
    case TransportError::Kind::kConnect: return "connect";
    case TransportError::Kind::kReset: return "reset";
    case TransportError::Kind::kClosedMidResponse: return "closed-mid-response";
  }
  return "?";
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 || res == nullptr)
    throw TransportError(TransportError::Kind::kConnect, "cannot resolve " + host);
  fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd_ < 0) {
    ::freeaddrinfo(res);
    throw_transport(TransportError::Kind::kConnect, "socket");
  }
  if (::connect(fd_, res->ai_addr, res->ai_addrlen) < 0) {
    ::freeaddrinfo(res);
    ::close(fd_);
    fd_ = -1;
    throw_transport(TransportError::Kind::kConnect, "connect");
  }
  ::freeaddrinfo(res);
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

ResponseFrame TcpClient::call(const RequestFrame& request) {
  const auto wire = encode_request(request);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw_transport(TransportError::Kind::kReset, "send");
  }

  std::uint8_t buf[64 * 1024];
  for (;;) {
    if (auto frame = parser_.next()) return std::move(*frame);
    if (parser_.error() != ParseError::kNone)
      throw std::runtime_error(std::string("protocol error from server: ") +
                               parse_error_name(parser_.error()));
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.feed(std::span(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0)
      throw TransportError(TransportError::Kind::kClosedMidResponse,
                           "server closed the connection mid-response");
    if (errno == EINTR) continue;
    throw_transport(TransportError::Kind::kReset, "recv");
  }
}

// --------------------------------------------------------------------------
// LoopbackClient

ResponseFrame LoopbackClient::call(const RequestFrame& request) {
  // Heap-allocated wait state so the worker-side completion can safely
  // outlive any particular stack frame; weak session capture avoids a
  // session -> handler -> session ownership cycle.
  struct WaitState {
    std::mutex mutex;
    std::condition_variable cv;
    bool completed = false;
  };
  const auto state = std::make_shared<WaitState>();

  auto session = std::make_shared<Session>(0, nullptr);
  const std::weak_ptr<Session> weak = session;
  session->set_handler([this, weak, state](RequestFrame&& frame) {
    service_.submit(std::move(frame), [weak, state](ResponseFrame&& resp) {
      if (const auto sp = weak.lock()) sp->enqueue_response(resp);
      {
        const std::lock_guard<std::mutex> lock(state->mutex);
        state->completed = true;
      }
      state->cv.notify_one();
    });
  });

  session->on_bytes(encode_request(request));
  if (!session->closed()) {
    // The handler submitted the request; wait for the worker's completion.
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] { return state->completed; });
  }
  // (A closed session means the request itself violated the protocol — e.g.
  // an oversize payload — and the error response is already in the outbox.)

  ResponseParser parser;
  parser.feed(session->take_outgoing());
  auto frame = parser.next();
  if (!frame) throw std::runtime_error("loopback: no response frame");
  return std::move(*frame);
}

}  // namespace lzss::server
