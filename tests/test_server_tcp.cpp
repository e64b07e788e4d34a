// Real-socket coverage for the TCP front end's connection lifecycle and
// overload controls (docs/SERVER.md "Connection lifecycle & overload"):
// partial-write reassembly, slow-loris / stalled-writer / idle eviction,
// write-buffer caps, max-conns accept shedding, the in-flight payload
// budget, brownout shedding, accept() failure recovery, the bounded drain
// deadline, and the client's typed TransportError.
//
// Every test drives a real TcpServer on an ephemeral loopback port; the
// misbehaving peers are hand-rolled raw sockets so the server's defenses are
// exercised against the actual syscall surface, not a mock.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "lzss/raw_container.hpp"
#include "lzss/token.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "server/frame.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

using namespace std::chrono_literals;
using server::Opcode;
using server::RequestFrame;
using server::ResponseFrame;
using server::Service;
using server::ServiceConfig;
using server::Status;
using server::TcpServer;
using server::TcpServerConfig;
using server::TransportError;

ServiceConfig small_service() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  return cfg;
}

RequestFrame ping(std::uint64_t id) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kPing;
  return req;
}

RequestFrame compress(std::uint64_t id, std::vector<std::uint8_t> data) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kCompress;
  req.payload = std::move(data);
  return req;
}

/// A raw-LZSS container that inflates to `out_bytes` of data from a
/// few-hundred-byte request — the cheap way to make the server owe a client
/// a huge response.
std::vector<std::uint8_t> bulky_raw_container(std::size_t out_bytes) {
  std::vector<core::Token> tokens;
  tokens.push_back(core::Token::literal('x'));
  std::size_t produced = 1;
  while (produced < out_bytes) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::size_t>(core::kMaxMatch, out_bytes - produced));
    if (len < core::kMinMatch) break;
    tokens.push_back(core::Token::match(1, len));
    produced += len;
  }
  return core::raw_container_pack(tokens, 12, produced);
}

/// Blocking loopback connect; returns the fd (or fails the test).
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// True when the peer closed (recv returns 0) within @p timeout.
bool wait_for_eof(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (::poll(&p, 1, 50) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EINTR) return true;  // reset counts
  }
  return false;
}

bool wait_until(const std::function<bool()>& pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// Service + server + run thread, torn down in order.
struct Harness {
  Service service;
  TcpServer tcp;
  std::thread runner;

  Harness(const ServiceConfig& scfg, const TcpServerConfig& tcfg)
      : service(scfg), tcp(service, /*port=*/0, tcfg) {
    runner = std::thread([this] { tcp.run(); });
  }
  ~Harness() {
    tcp.stop();
    runner.join();
  }
  [[nodiscard]] std::uint64_t counter(const char* name, const char* reason = nullptr) {
    if (reason == nullptr) return service.metrics().counter(name).value();
    return service.metrics().counter(name, {{"reason", reason}}).value();
  }
};

// --------------------------------------------------------------------------

TEST(ServerTcp, PartialWritePathReassembles) {
  // The pre-existing short-write degradation: every response byte goes out in
  // 1-byte send()s, and the client-side parser must reassemble.
  fault::Spec spec;
  spec.action = fault::Action::kFire;
  spec.probability = 1.0;
  const fault::ScopedFault guard("server.tcp.short_write", spec);

  Harness h(small_service(), TcpServerConfig{});
  const auto corpus = wl::make_corpus("mixed", 8 * 1024, 7);
  server::TcpClient client("127.0.0.1", h.tcp.port());
  const auto resp = client.call(compress(1, corpus));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), corpus);
  EXPECT_EQ(resp.adler, checksum::adler32(corpus));
}

TEST(ServerTcp, SlowLorisEvictedWhileHealthyClientsComplete) {
  TcpServerConfig tcfg;
  tcfg.read_progress_timeout_ms = 150;
  Harness h(small_service(), tcfg);

  // The attacker: trickles a valid header prefix, then stops forever.
  const int loris = raw_connect(h.tcp.port());
  const char prefix[4] = {'L', 'Z', 'R', 'Q'};
  ASSERT_EQ(::send(loris, prefix, sizeof(prefix), MSG_NOSIGNAL), 4);

  // Well-behaved clients keep completing round trips the whole time.
  std::atomic<bool> stop{false};
  std::atomic<int> healthy_ok{0};
  std::thread healthy([&] {
    server::TcpClient client("127.0.0.1", h.tcp.port());
    const auto corpus = wl::make_corpus("mixed", 2048, 3);
    for (std::uint64_t id = 1; !stop.load(); ++id) {
      const auto resp = client.call(compress(id, corpus));
      if (resp.status == Status::kOk) healthy_ok.fetch_add(1);
      std::this_thread::sleep_for(10ms);
    }
  });

  EXPECT_TRUE(wait_for_eof(loris, 3000ms)) << "slow-loris connection never evicted";
  EXPECT_TRUE(wait_until(
      [&] { return h.counter("server_conns_evicted_total", "slow_read") >= 1; }, 1000ms));
  stop.store(true);
  healthy.join();
  ::close(loris);
  EXPECT_GE(healthy_ok.load(), 1);
}

TEST(ServerTcp, IdleConnectionEvicted) {
  TcpServerConfig tcfg;
  tcfg.idle_timeout_ms = 100;
  Harness h(small_service(), tcfg);

  const int idle = raw_connect(h.tcp.port());
  EXPECT_TRUE(wait_for_eof(idle, 3000ms)) << "idle connection never evicted";
  EXPECT_GE(h.counter("server_conns_evicted_total", "idle"), 1u);
  ::close(idle);

  // The server still accepts and serves new clients afterwards.
  server::TcpClient client("127.0.0.1", h.tcp.port());
  EXPECT_EQ(client.call(ping(9)).status, Status::kOk);
}

TEST(ServerTcp, WriteOverflowEvictsStalledReader) {
  // A peer that requests a response far larger than the per-connection write
  // cap and never reads: the cap must evict it instead of buffering 8 MiB.
  TcpServerConfig tcfg;
  tcfg.max_write_buf_bytes = 64 * 1024;
  Harness h(small_service(), tcfg);

  const int fd = raw_connect(h.tcp.port());
  RequestFrame req;
  req.id = 5;
  req.opcode = Opcode::kDecompress;
  req.flags = server::kFlagRawContainer;
  req.payload = bulky_raw_container(8 * 1024 * 1024);
  const auto wire = encode_request(req);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Never recv: the 8 MiB response overflows the 64 KiB cap at the pump.
  EXPECT_TRUE(wait_for_eof(fd, 5000ms)) << "oversized write_buf never evicted";
  EXPECT_TRUE(wait_until(
      [&] { return h.counter("server_conns_evicted_total", "write_overflow") >= 1; }, 1000ms));
  ::close(fd);
}

TEST(ServerTcp, StalledWriterEvictedByWriteStallTimeout) {
  // The injected stalled writer: flush_writable pretends EAGAIN forever, so
  // only the write-stall timeout can reclaim the connection.
  fault::Spec spec;
  spec.action = fault::Action::kFire;
  spec.probability = 1.0;
  const fault::ScopedFault guard("server.tcp.stalled_writer", spec);

  TcpServerConfig tcfg;
  tcfg.write_stall_timeout_ms = 150;
  Harness h(small_service(), tcfg);

  server::TcpClient client("127.0.0.1", h.tcp.port());
  try {
    const auto resp = client.call(ping(1));
    FAIL() << "expected eviction, got status " << server::status_name(resp.status);
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosedMidResponse);
  }
  EXPECT_GE(h.counter("server_conns_evicted_total", "write_stall"), 1u);
}

TEST(ServerTcp, MaxConnsShedsExcessAtAccept) {
  TcpServerConfig tcfg;
  tcfg.max_conns = 2;
  Harness h(small_service(), tcfg);

  auto a = std::make_unique<server::TcpClient>("127.0.0.1", h.tcp.port());
  auto b = std::make_unique<server::TcpClient>("127.0.0.1", h.tcp.port());
  ASSERT_EQ(a->call(ping(1)).status, Status::kOk);
  ASSERT_EQ(b->call(ping(2)).status, Status::kOk);

  // The third connection is accepted and immediately closed, counted as shed.
  {
    server::TcpClient c("127.0.0.1", h.tcp.port());
    EXPECT_THROW((void)c.call(ping(3)), TransportError);
  }
  EXPECT_TRUE(
      wait_until([&] { return h.counter("server_conns_shed_total", "max_conns") >= 1; }, 1000ms));

  // Capacity freed by closing a connection is reusable.
  a.reset();
  EXPECT_TRUE(wait_until(
      [&] {
        try {
          server::TcpClient d("127.0.0.1", h.tcp.port());
          return d.call(ping(4)).status == Status::kOk;
        } catch (const TransportError&) {
          return false;
        }
      },
      3000ms));
}

TEST(ServerTcp, InflightBudgetShedsBusyAtHeader) {
  TcpServerConfig tcfg;
  tcfg.max_inflight_bytes = 256 * 1024;
  Harness h(small_service(), tcfg);

  server::TcpClient client("127.0.0.1", h.tcp.port());
  // A 1 MiB COMPRESS blows the 256 KiB budget: BUSY at the header, payload
  // discarded unbuffered, connection stays healthy.
  const auto resp = client.call(compress(1, std::vector<std::uint8_t>(1024 * 1024, 'a')));
  EXPECT_EQ(resp.status, Status::kBusy);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_GE(h.counter("server_frames_shed_total", "inflight_budget"), 1u);

  // Control plane and small frames still flow on the same connection.
  EXPECT_EQ(client.call(ping(2)).status, Status::kOk);
  const auto small = client.call(compress(3, wl::make_corpus("mixed", 2048, 5)));
  EXPECT_EQ(small.status, Status::kOk);
  // The budget was handed back: the inflight gauge settles at zero.
  EXPECT_TRUE(wait_until(
      [&] {
        const auto snap = h.service.metrics().snapshot();
        const auto* s = snap.find("server_inflight_bytes");
        return s != nullptr && s->gauge == 0;
      },
      1000ms));
}

TEST(ServerTcp, BrownoutShedsBulkyKeepsControlPlane) {
  // Make queue waits real: one worker, each request parked 30 ms, so the
  // recent-window p99 of server_queue_wait_us crosses 1 ms immediately.
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.probability = 1.0;
  slow.delay_ms = 30;
  const fault::ScopedFault guard("server.worker.pre_compress", slow);

  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.queue_depth = 32;
  TcpServerConfig tcfg;
  tcfg.brownout_queue_wait_us = 1000;
  Harness h(scfg, tcfg);

  std::atomic<bool> stop{false};
  std::thread pressure([&] {
    server::TcpClient client("127.0.0.1", h.tcp.port());
    const auto corpus = wl::make_corpus("mixed", 1024, 11);
    for (std::uint64_t id = 100; !stop.load(); ++id) {
      try {
        (void)client.call(compress(id, corpus));
      } catch (const TransportError&) {
        break;
      }
    }
  });

  // Wait for the brownout to trip, then prove the policy: bulky sheds BUSY
  // at the header, STATS still answers.
  server::TcpClient probe("127.0.0.1", h.tcp.port());
  bool saw_brownout_busy = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  std::uint64_t id = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto resp = probe.call(compress(id++, std::vector<std::uint8_t>(4096, 'b')));
    if (resp.status == Status::kBusy &&
        h.counter("server_frames_shed_total", "brownout") >= 1) {
      saw_brownout_busy = true;
      break;
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(saw_brownout_busy) << "brownout never shed a bulky frame";

  RequestFrame stats;
  stats.id = 9999;
  stats.opcode = Opcode::kStats;
  const auto stats_resp = probe.call(stats);
  EXPECT_EQ(stats_resp.status, Status::kOk) << "STATS must answer during brownout";
  EXPECT_FALSE(stats_resp.payload.empty());

  stop.store(true);
  pressure.join();
  EXPECT_GE(h.counter("server_brownout_entered_total"), 1u);
}

TEST(ServerTcp, AcceptFailureCountedAndRecovered) {
  // One injected accept() failure: the pending connection is served on the
  // next poll round (level-triggered listen fd), and the error is counted.
  fault::Spec spec;
  spec.action = fault::Action::kFire;
  spec.probability = 1.0;
  spec.max_triggers = 1;
  const fault::ScopedFault guard("server.tcp.accept_fail", spec);

  Harness h(small_service(), TcpServerConfig{});
  server::TcpClient client("127.0.0.1", h.tcp.port());
  EXPECT_EQ(client.call(ping(1)).status, Status::kOk);
  EXPECT_GE(h.counter("server_accept_errors_total"), 1u);
}

TEST(ServerTcp, DrainDeadlineBoundsShutdown) {
  // A response is owed to a peer whose socket never drains (injected stalled
  // writer). stop() must return within the drain deadline, evicting the
  // straggler with a typed reason, instead of hanging shutdown.
  fault::Spec spec;
  spec.action = fault::Action::kFire;
  spec.probability = 1.0;
  const fault::ScopedFault guard("server.tcp.stalled_writer", spec);

  ServiceConfig scfg = small_service();
  TcpServerConfig tcfg;
  tcfg.drain_deadline_ms = 300;
  Service service(scfg);
  TcpServer tcp(service, /*port=*/0, tcfg);
  std::thread runner([&] { tcp.run(); });

  const int fd = raw_connect(tcp.port());
  const auto wire = encode_request(ping(1));
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Let the worker answer and the flush get stuck.
  auto& accepted = service.metrics().counter("server_conns_accepted_total");
  ASSERT_TRUE(wait_until(
      [&] {
        const auto snap = service.metrics().snapshot();
        const auto* s = snap.find("server_inflight_requests");
        return s != nullptr && s->gauge == 0 && accepted.value() >= 1;
      },
      3000ms));
  std::this_thread::sleep_for(50ms);  // response pumped into the stuck write_buf

  const auto t0 = std::chrono::steady_clock::now();
  tcp.stop();
  runner.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 2s) << "drain deadline did not bound shutdown";
  EXPECT_GE(service.metrics().counter("server_conns_evicted_total", {{"reason", "drain_deadline"}})
                .value(),
            1u);
  ::close(fd);
}

TEST(ServerTcp, ClientTransportErrorKinds) {
  // kConnect: nobody listening.
  std::uint16_t dead_port;
  {
    Service service(small_service());
    TcpServer tcp(service, 0);
    dead_port = tcp.port();
  }
  try {
    server::TcpClient client("127.0.0.1", dead_port);
    FAIL() << "expected connect failure";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kConnect);
  }

  // kClosedMidResponse: a listener that accepts and immediately hangs up.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  server::TcpClient client("127.0.0.1", ntohs(addr.sin_port));
  const int afd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(afd, 0);
  ::close(afd);
  try {
    (void)client.call(ping(1));
    FAIL() << "expected closed-mid-response";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.kind() == TransportError::Kind::kClosedMidResponse ||
                e.kind() == TransportError::Kind::kReset);
  }
  ::close(lfd);
}

/// Raw HTTP/1.0 GET against the telemetry sidecar; returns the full response
/// (status line + headers + body) so tests can assert on either part.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = raw_connect(port);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(ServerTcpTrace, EndToEndSpanTreeOverRealSocketsAndScrapePlane) {
  // The full PR-9 acceptance path: a traced COMPRESS_BLOCKED over real TCP
  // sockets echoes the client's trace id, records a >=4-deep span tree
  // (request.compress_blocked -> compress_blocked -> container_block ->
  // engine.encode), and the same tree is retrievable live via GET /trace.
  obs::TraceRing ring(4096);
  ServiceConfig scfg = small_service();
  scfg.trace = &ring;
  scfg.trace_sample = 0;         // only the client's explicit opt-in traces
  scfg.block_bytes = 16 * 1024;  // 64 KiB corpus -> 4-block fan-out
  Harness h(scfg, TcpServerConfig{});

  RequestFrame req;
  req.id = 99;
  req.opcode = Opcode::kCompressBlocked;
  req.payload = wl::make_corpus("mixed", 64 * 1024, 3);
  req.flags = server::kFlagTraced;
  req.trace_id = 0x1122334455667788ull;

  server::TcpClient client("127.0.0.1", h.tcp.port());
  const auto resp = client.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, req.trace_id);  // echoed through the LZRS extension

  const auto tree = ring.events_for(req.trace_id);
  ASSERT_GE(tree.size(), 4u);
  std::size_t max_depth = 0;
  bool saw_block = false;
  bool saw_engine = false;
  for (const auto& e : tree) {
    if (std::strcmp(e.name, "container_block") == 0) saw_block = true;
    if (std::strcmp(e.name, "engine.encode") == 0) saw_engine = true;
    std::size_t depth = 1;
    std::uint64_t parent = e.parent_id;
    while (parent != 0 && depth <= tree.size()) {
      ++depth;
      std::uint64_t next = 0;
      for (const auto& p : tree) {
        if (p.span_id == parent) {
          next = p.parent_id;
          break;
        }
      }
      parent = next;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_GE(max_depth, 4u);
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_engine);

  // Live scrape plane: the sidecar serves the ring as JSONL right now, no
  // shutdown required, and the client-chosen id appears verbatim.
  obs::HttpSidecar sidecar(0);
  sidecar.handle("/trace", "application/x-ndjson",
                 [&ring] { return ring.to_jsonl(); });
  sidecar.start();
  const std::string scrape = http_get(sidecar.port(), "/trace");
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("1122334455667788"), std::string::npos);
  EXPECT_NE(scrape.find("request.compress_blocked"), std::string::npos);
  sidecar.stop();
}

}  // namespace
}  // namespace lzss
