// Chaos suite: seeded fault-injection episodes against the hardened service.
//
// Every registered fault point gets armed in turn while randomized
// multi-client traffic runs; the robustness contract under test is
//   * every request is answered (typed status or a clean transport error),
//   * nothing crashes, wedges, or leaks a wait,
//   * after the episode the same service instance answers a clean
//     PING and a verified COMPRESS round trip.
// Dedicated tests then pin each recovery mechanism in isolation: deadline
// reaping, hung-worker poisoning, killed-worker respawn, stored-container
// fallback, and channel stall tolerance.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/prng.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "hw/pipeline.hpp"
#include "lzss/raw_container.hpp"
#include "obs/metrics.hpp"
#include "server/frame.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "store_test_util.hpp"
#include "stream/channel.hpp"
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

constexpr auto kEpisodeTimeout = 60s;  // far beyond any healthy episode

ServiceConfig chaos_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 8;
  cfg.request_timeout_ms = 1000;
  cfg.hung_worker_ms = 200;
  cfg.block_bytes = 4096;  // small enough that chaos traffic spans blocks
  return cfg;
}

RequestFrame compress_request(std::uint64_t id, std::vector<std::uint8_t> data,
                              std::uint16_t flags = 0) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kCompress;
  req.flags = flags;
  req.payload = std::move(data);
  return req;
}

/// Outcome of one traffic episode. `transport_errors` only grows on the
/// socket/loopback paths where a corrupted or aborted byte stream surfaces
/// as an exception in the client — still a *clean, typed* failure.
struct TrafficResult {
  int submitted = 0;
  int answered = 0;
  int transport_errors = 0;
  std::map<Status, int> by_status;
};

/// Randomized traffic straight into Service::submit (no transport): mixed
/// COMPRESS / DECOMPRESS (zlib and LZBC bodies) / COMPRESS_BLOCKED / PING
/// across several client threads. Every submit is accounted for; the wait at
/// the end fails the test if any completion never fires.
TrafficResult drive_submit_traffic(Service& service, const std::vector<std::uint8_t>& corpus,
                                   const std::vector<std::uint8_t>& zlib_body,
                                   const std::vector<std::uint8_t>& lzbc_body,
                                   std::uint64_t seed, unsigned threads = 3,
                                   int per_thread = 4) {
  TrafficResult result;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  const int total = static_cast<int>(threads) * per_thread;

  auto on_done = [&](ResponseFrame&& resp) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    ++result.by_status[resp.status];
    cv.notify_one();
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      rng::Xoshiro256 rng(seed * 977 + t);
      for (int i = 0; i < per_thread; ++i) {
        const std::uint64_t id = (static_cast<std::uint64_t>(t) << 32) | std::uint64_t(i);
        const std::uint64_t kind = rng.next_below(10);
        RequestFrame req;
        req.id = id;
        if (kind < 6) {
          const std::size_t chunk = 512 + rng.next_below(1536);
          const std::size_t off = rng.next_below(corpus.size() - chunk);
          req = compress_request(
              id,
              {corpus.begin() + static_cast<std::ptrdiff_t>(off),
               corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk)},
              rng.next_below(2) == 0 ? server::kFlagRawContainer : std::uint16_t{0});
        } else if (kind < 8) {
          req.opcode = Opcode::kDecompress;
          req.payload = rng.next_below(2) == 0 ? zlib_body : lzbc_body;
        } else if (kind == 8) {
          // Multi-block fan-out under fault pressure: with the chaos config's
          // 4 KiB blocks these requests spawn helper sub-jobs on the same
          // queue the rest of the traffic is fighting over.
          const std::size_t chunk = 2048 + rng.next_below(10240);
          const std::size_t off = rng.next_below(corpus.size() - chunk);
          req.opcode = Opcode::kCompressBlocked;
          req.payload.assign(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                             corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
        } else {
          req.opcode = Opcode::kPing;
        }
        service.submit(std::move(req), on_done);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::unique_lock<std::mutex> lock(mutex);
  const bool all = cv.wait_for(lock, kEpisodeTimeout, [&] { return completed == total; });
  EXPECT_TRUE(all) << "unanswered requests: " << (total - completed) << " of " << total;
  result.submitted = total;
  result.answered = completed;
  return result;
}

/// Traffic over the loopback transport (full encode → Session → parse
/// path). Exceptions from the client-side parser — possible when the
/// session-egress corruption point mangles a response — count as clean
/// transport errors, not failures.
TrafficResult drive_loopback_traffic(Service& service,
                                     const std::vector<std::uint8_t>& corpus,
                                     std::uint64_t seed, unsigned threads = 3,
                                     int per_thread = 4) {
  TrafficResult result;
  std::mutex mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      server::LoopbackClient client(service);
      rng::Xoshiro256 rng(seed * 1231 + t);
      for (int i = 0; i < per_thread; ++i) {
        const std::size_t chunk = 512 + rng.next_below(1024);
        const std::size_t off = rng.next_below(corpus.size() - chunk);
        auto req = compress_request(
            static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(i),
            {corpus.begin() + static_cast<std::ptrdiff_t>(off),
             corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk)});
        const std::lock_guard<std::mutex> lock(mutex);
        try {
          const auto resp = client.call(req);
          ++result.answered;
          ++result.by_status[resp.status];
        } catch (const std::exception&) {
          ++result.transport_errors;
        }
        ++result.submitted;
      }
    });
  }
  for (auto& th : pool) th.join();
  return result;
}

/// A full episode over real sockets, tolerant of injected aborts/short
/// writes: a dropped connection is reopened, a failed call is a transport
/// error. A TcpServer stops its Service on teardown (completions capture
/// the server for wake()), so the post-episode health check runs over TCP
/// against the still-live server — same service instance, faults disarmed.
void run_tcp_episode(const std::string& point, const fault::Spec& spec,
                     const std::vector<std::uint8_t>& corpus, std::uint64_t seed,
                     unsigned threads = 2, int per_thread = 4) {
  Service service(chaos_config());
  server::TcpServer tcp(service, /*port=*/0);
  std::thread server_thread([&] { tcp.run(); });
  const std::uint16_t port = tcp.port();

  TrafficResult result;
  {
    const fault::ScopedFault guard(point, spec);
    std::mutex mutex;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        rng::Xoshiro256 rng(seed * 733 + t);
        std::unique_ptr<server::TcpClient> client;
        for (int i = 0; i < per_thread; ++i) {
          const std::size_t chunk = 256 + rng.next_below(768);
          const std::size_t off = rng.next_below(corpus.size() - chunk);
          auto req = compress_request(
              static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(i),
              {corpus.begin() + static_cast<std::ptrdiff_t>(off),
               corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk)});
          bool ok = false;
          Status status = Status::kOk;
          try {
            if (!client) client = std::make_unique<server::TcpClient>("127.0.0.1", port);
            status = client->call(req).status;
            ok = true;
          } catch (const std::exception&) {
            client.reset();  // injected abort: reconnect on the next request
          }
          const std::lock_guard<std::mutex> lock(mutex);
          ++result.submitted;
          if (ok) {
            ++result.answered;
            ++result.by_status[status];
          } else {
            ++result.transport_errors;
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  EXPECT_EQ(result.answered + result.transport_errors, result.submitted);

  // Health check over the wire: clean PING and a verified COMPRESS round
  // trip on a fresh connection, every fault disarmed.
  {
    server::TcpClient client("127.0.0.1", port);
    RequestFrame ping;
    ping.id = 0xFEED;
    ping.opcode = Opcode::kPing;
    const auto pong = client.call(ping);
    ASSERT_EQ(pong.status, Status::kOk);
    const std::vector<std::uint8_t> data(corpus.begin(), corpus.begin() + 4096);
    const auto resp = client.call(compress_request(0xC0FFEE, data));
    ASSERT_EQ(resp.status, Status::kOk);
    ASSERT_EQ(deflate::zlib_decompress(resp.payload), data);
  }

  tcp.stop();
  server_thread.join();
}

/// Post-episode health check: with everything disarmed, the same service
/// must answer PING and a verified COMPRESS round trip. A service that died
/// during the episode (all workers killed) must have been healed by the
/// watchdog for this to pass.
void expect_service_healthy(Service& service, const std::vector<std::uint8_t>& corpus) {
  server::LoopbackClient client(service);

  RequestFrame ping;
  ping.id = 0xFEED;
  ping.opcode = Opcode::kPing;
  const auto pong = client.call(ping);
  ASSERT_EQ(pong.status, Status::kOk);
  ASSERT_EQ(pong.id, 0xFEEDu);

  const std::vector<std::uint8_t> data(corpus.begin(), corpus.begin() + 4096);
  const auto resp = client.call(compress_request(0xC0FFEE, data));
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.adler, checksum::adler32(data));
  ASSERT_EQ(deflate::zlib_decompress(resp.payload), data);
}

/// Per-point fault spec for the sweep. Actions match what the call site can
/// express: point() sites throw/delay/kill, fires() sites stall or abort,
/// corrupt sites flip bits.
fault::Spec sweep_spec(const std::string& point, int iter) {
  fault::Spec spec;
  spec.seed = static_cast<std::uint64_t>(iter) + 1;
  if (point == "server.worker.pre_compress") {
    switch (iter % 3) {
      case 0: spec.action = fault::Action::kThrow; spec.probability = 0.4; break;
      case 1:
        spec.action = fault::Action::kDelay;
        spec.delay_ms = 20;
        spec.probability = 0.4;
        break;
      default:
        spec.action = fault::Action::kKillWorker;
        spec.probability = 1.0;
        spec.max_triggers = 1;  // one crash per episode; the watchdog heals it
        break;
    }
  } else if (point == "stream.channel.stall") {
    spec.action = fault::Action::kFire;
    spec.probability = 0.05;
  } else if (point == "server.tcp.short_write" || point == "server.tcp.abort") {
    spec.action = fault::Action::kFire;
    spec.probability = point == "server.tcp.abort" ? 0.15 : 0.5;
  } else if (point == "server.tcp.slow_reader" || point == "server.tcp.stalled_writer" ||
             point == "server.tcp.accept_fail") {
    // Lifecycle faults must stay sub-certain: a permanently stalled writer
    // or failing accept loop with no eviction timeouts configured would
    // wedge the episode instead of slowing it down.
    spec.action = fault::Action::kFire;
    spec.probability = point == "server.tcp.slow_reader" ? 0.5 : 0.3;
  } else if (point == "server.session.egress" || point == "deflate.inflate.corrupt" ||
             point == "container.block.corrupt") {
    spec.action = fault::Action::kCorrupt;
    spec.probability = 0.5;
  } else if (point == "container.reassemble.delay") {
    spec.action = fault::Action::kDelay;
    spec.delay_ms = 10;
    spec.probability = 0.5;
  } else if (point == "store.retain.unlink" || point == "store.scrub.read" ||
             point == "store.compact.rename") {
    // fires()/File-op failure signals on the maintenance paths; inert while
    // no store is attached, but armed here so the sweep proves arming any
    // registered point never destabilizes plain compression traffic.
    spec.action = fault::Action::kFire;
    spec.probability = 1.0;
  } else if (point == "store.compact.crash") {
    spec.action = fault::Action::kThrow;
    spec.probability = 1.0;
    spec.max_triggers = 1;
  } else if (point == "store.fsync.pace") {
    spec.action = fault::Action::kDelay;
    spec.delay_ms = 5;
    spec.probability = 0.5;
  } else {
    spec.action = fault::Action::kThrow;
    spec.probability = 0.3;
  }
  return spec;
}

// The sweep acceptance test: every registered point armed six times under
// randomized multi-client traffic, each episode followed by a clean-service
// health check on the same instance.
TEST(Chaos, SweepEveryRegisteredPoint) {
  const auto points = fault::all_points();
  ASSERT_GE(points.size(), 22u);
  const auto corpus = wl::make_corpus("mixed", 64 * 1024);
  std::vector<std::uint8_t> zlib_body, lzbc_body;
  {
    // Small valid containers (one zlib, one LZBC) for DECOMPRESS traffic,
    // built before any fault is armed.
    Service service(chaos_config());
    server::LoopbackClient client(service);
    const std::vector<std::uint8_t> data(corpus.begin(), corpus.begin() + 2048);
    const auto resp = client.call(compress_request(1, data));
    EXPECT_EQ(resp.status, Status::kOk);
    zlib_body = resp.payload;
    RequestFrame blocked;
    blocked.id = 2;
    blocked.opcode = Opcode::kCompressBlocked;
    blocked.payload.assign(corpus.begin(), corpus.begin() + 12 * 1024);
    const auto packed = client.call(blocked);
    EXPECT_EQ(packed.status, Status::kOk);
    lzbc_body = packed.payload;
  }

  const int iterations = static_cast<int>(points.size()) * 6;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string point = points[static_cast<std::size_t>(iter) % points.size()];
    SCOPED_TRACE("iteration " + std::to_string(iter) + " point " + point);

    if (point == "server.tcp.short_write" || point == "server.tcp.abort" ||
        point == "server.tcp.slow_reader" || point == "server.tcp.stalled_writer" ||
        point == "server.tcp.accept_fail") {
      // Runs its own server+service and health-checks over the wire.
      run_tcp_episode(point, sweep_spec(point, iter), corpus,
                      static_cast<std::uint64_t>(iter));
      continue;
    }

    Service service(chaos_config());
    {
      const fault::ScopedFault guard(point, sweep_spec(point, iter));
      TrafficResult r;
      if (point == "server.session.egress") {
        r = drive_loopback_traffic(service, corpus, static_cast<std::uint64_t>(iter));
      } else if (point == "stream.channel.stall") {
        // The stall point lives in the cycle-level pipeline; run a block
        // through run_system under stall pressure, then normal traffic.
        const std::vector<std::uint8_t> block(corpus.begin(), corpus.begin() + 2048);
        const auto report = hw::run_system(hw::HwConfig::speed_optimized(), block);
        EXPECT_EQ(deflate::inflate_raw(report.deflate_stream), block);
        r = drive_submit_traffic(service, corpus, zlib_body, lzbc_body,
                                 static_cast<std::uint64_t>(iter));
      } else {
        r = drive_submit_traffic(service, corpus, zlib_body, lzbc_body,
                                 static_cast<std::uint64_t>(iter));
      }
      EXPECT_EQ(r.answered + r.transport_errors, r.submitted);
    }
    expect_service_healthy(service, corpus);
  }
}

TEST(Chaos, KilledWorkerAnsweredWithTypedErrorAndRespawned) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.hung_worker_ms = 50;  // enables the watchdog
  Service service(cfg);
  const auto data = wl::make_corpus("wiki", 4096);

  fault::Spec kill;
  kill.action = fault::Action::kKillWorker;
  kill.max_triggers = 1;
  {
    const fault::ScopedFault guard("server.worker.pre_compress", kill);
    server::LoopbackClient client(service);
    // The sole worker dies mid-request; the watchdog must answer the orphan
    // with a typed error and backfill the pool.
    const auto resp = client.call(compress_request(1, data));
    EXPECT_EQ(resp.status, Status::kInternal);
  }

  // The respawned worker serves the next request.
  server::LoopbackClient client(service);
  const auto resp = client.call(compress_request(2, data));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
  EXPECT_GE(service.metrics().counter("server_workers_respawned_total").value(), 1u);
}

TEST(Chaos, QueuedRequestsPastDeadlineAreReaped) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 8;
  cfg.request_timeout_ms = 80;
  Service service(cfg);
  const auto data = wl::make_corpus("wiki", 4096);

  // First dispatched request holds the only worker for 600 ms; the ones
  // queued behind it blow their 80 ms deadline and must be reaped without
  // ever reaching a worker.
  fault::Spec slow;
  slow.action = fault::Action::kDelay;
  slow.delay_ms = 600;
  slow.max_triggers = 1;
  const fault::ScopedFault guard("server.worker.pre_compress", slow);

  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::uint64_t, Status> answers;
  for (std::uint64_t id = 0; id < 3; ++id) {
    service.submit(compress_request(id, data), [&, id](ResponseFrame&& resp) {
      const std::lock_guard<std::mutex> lock(mutex);
      answers[id] = resp.status;
      cv.notify_one();
    });
    if (id == 0) std::this_thread::sleep_for(20ms);  // let it reach the worker
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, kEpisodeTimeout, [&] { return answers.size() == 3; }));
  }
  EXPECT_EQ(answers[0], Status::kOk);  // slow but within no-deadline dispatch
  EXPECT_EQ(answers[1], Status::kDeadlineExceeded);
  EXPECT_EQ(answers[2], Status::kDeadlineExceeded);

  EXPECT_GE(service.metrics().counter("server_deadline_exceeded_total").value(), 2u);
}

TEST(Chaos, HungWorkerIsPoisonedAndReplaced) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.hung_worker_ms = 80;
  Service service(cfg);
  const auto data = wl::make_corpus("wiki", 4096);

  fault::Spec stuck;
  stuck.action = fault::Action::kDelay;
  stuck.delay_ms = 600;
  stuck.max_triggers = 1;
  const fault::ScopedFault guard("server.worker.pre_compress", stuck);

  server::LoopbackClient client(service);
  // The hung request is failed by the watchdog well before the 600 ms sleep
  // finishes...
  const auto t0 = std::chrono::steady_clock::now();
  const auto resp = client.call(compress_request(1, data));
  EXPECT_EQ(resp.status, Status::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);

  // ...and a replacement worker serves the next one while the poisoned
  // original is still sleeping.
  const auto resp2 = client.call(compress_request(2, data));
  ASSERT_EQ(resp2.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp2.payload), data);
  EXPECT_GE(service.metrics().counter("server_workers_respawned_total").value(), 1u);
}

TEST(Chaos, ModelFailureDegradesToStoredContainer) {
  Service service(chaos_config());
  server::LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 8 * 1024);

  fault::Spec broken;
  broken.action = fault::Action::kThrow;
  const fault::ScopedFault guard("server.worker.compress", broken);

  // zlib flavour: stored blocks still round-trip through the standard path.
  const auto z = client.call(compress_request(1, data));
  ASSERT_EQ(z.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(z.payload), data);
  EXPECT_GE(z.payload.size(), data.size());  // stored, not compressed

  // raw flavour: an all-literal token container.
  const auto r = client.call(compress_request(2, data, server::kFlagRawContainer));
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(core::raw_container_unpack(r.payload), data);

  EXPECT_GE(service.metrics().counter("server_fallbacks_total").value(), 2u);
}

TEST(Chaos, IncompressibleInputTripsTheRatioGuard) {
  ServiceConfig cfg = chaos_config();
  Service service(cfg);
  server::LoopbackClient client(service);

  // Pure random bytes expand under fixed-Huffman coding; the guard must
  // swap in the smaller stored container and still round-trip.
  const auto data = wl::make_corpus("random", 8 * 1024);
  const auto resp = client.call(compress_request(1, data));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
  EXPECT_LE(resp.payload.size(), data.size() + 64);  // stored overhead only
  EXPECT_GE(service.metrics().counter("server_fallbacks_total").value(), 1u);
}

TEST(Chaos, IngressAndEgressFaultsStillAnswerTyped) {
  Service service(chaos_config());
  server::LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 2048);

  fault::Spec always;
  always.action = fault::Action::kThrow;
  {
    const fault::ScopedFault guard("server.queue.ingress", always);
    EXPECT_EQ(client.call(compress_request(1, data)).status, Status::kInternal);
  }
  {
    const fault::ScopedFault guard("server.response.egress", always);
    const auto resp = client.call(compress_request(2, data));
    EXPECT_EQ(resp.status, Status::kInternal);
    EXPECT_TRUE(resp.payload.empty());
  }
  expect_service_healthy(service, wl::make_corpus("mixed", 8 * 1024));
}

TEST(Chaos, ChannelStallNeverWedgesTheHandshake) {
  // Direct handshake check: a forced stall streak defers, never breaks, the
  // transfer; the channel's per-cycle invariants hold throughout.
  stream::Channel<int> ch(2);
  fault::Spec stall;
  stall.action = fault::Action::kFire;
  stall.max_triggers = 3;
  const fault::ScopedFault guard("stream.channel.stall", stall);

  int pushed = 0, popped = 0;
  for (int cycle = 0; cycle < 64 && popped < 8; ++cycle) {
    if (pushed < 8 && ch.can_push()) ch.push(pushed++);
    if (ch.can_pop()) {
      EXPECT_EQ(ch.pop(), popped);
      ++popped;
    }
    ch.tick();
  }
  EXPECT_EQ(popped, 8);

  // And the full pipeline under sustained probabilistic stall pressure.
  fault::Spec pressure;
  pressure.action = fault::Action::kFire;
  pressure.probability = 0.1;
  pressure.seed = 99;
  fault::arm("stream.channel.stall", pressure);
  const auto data = wl::make_corpus("wiki", 4096);
  const auto report = hw::run_system(hw::HwConfig::speed_optimized(), data);
  fault::disarm("stream.channel.stall");
  EXPECT_EQ(deflate::inflate_raw(report.deflate_stream), data);
}

TEST(Chaos, ContainerFaultPointsAnswerTypedAndRecover) {
  ServiceConfig cfg = chaos_config();
  Service service(cfg);
  server::LoopbackClient client(service);
  const auto data = wl::make_corpus("mixed", 24 * 1024);

  RequestFrame blocked;
  blocked.id = 1;
  blocked.opcode = Opcode::kCompressBlocked;
  blocked.payload = data;
  const auto packed = client.call(blocked);
  ASSERT_EQ(packed.status, Status::kOk);

  RequestFrame dec;
  dec.opcode = Opcode::kDecompress;
  dec.payload = packed.payload;
  {
    // Every block's compressed view gets bit-flipped in flight: the request
    // must collapse to one typed CORRUPT — never a partial payload.
    fault::Spec corrupt;
    corrupt.action = fault::Action::kCorrupt;
    const fault::ScopedFault guard("container.block.corrupt", corrupt);
    dec.id = 2;
    const auto resp = client.call(dec);
    EXPECT_EQ(resp.status, Status::kCorrupt);
    EXPECT_TRUE(resp.payload.empty());
  }
  {
    // A throw out of the fan-out (before the parent claims a block) must
    // unwind through the quiesce guard into a typed INTERNAL, with every
    // in-flight helper waited out before the request's stack dies.
    fault::Spec boom;
    boom.action = fault::Action::kThrow;
    const fault::ScopedFault guard("container.reassemble.delay", boom);
    RequestFrame again;
    again.id = 3;
    again.opcode = Opcode::kCompressBlocked;
    again.payload = data;
    const auto resp = client.call(again);
    EXPECT_EQ(resp.status, Status::kInternal);
    EXPECT_TRUE(resp.payload.empty());
  }
  // Disarmed: the same container decodes cleanly on the same instance.
  dec.id = 4;
  const auto resp = client.call(dec);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.payload, data);
  expect_service_healthy(service, data);
}

TEST(Chaos, ScrubHitsCorruptionQuarantinesAndServesOn) {
  // The online maintenance contract end to end: a scrub that walks into real
  // bitrot (and into injected read failures) quarantines, counts, and keeps
  // the server answering — it never takes the service down.
  store::testutil::TempDir dir;
  store::StoreOptions opt;
  opt.segment_bytes = 2048;  // several sealed segments from 50 records
  opt.fsync_policy = store::FsyncPolicy::kNever;
  {
    store::LogStore log(dir.path, opt);
    for (std::uint64_t seq = 1; seq <= 50; ++seq)
      log.append(store::testutil::record_payload(seq));
    log.flush();
  }
  const auto segs = store::testutil::segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // The service first: the store's metrics live in its registry, which must
  // outlive the store.
  Service service(chaos_config());
  store::LogStore log(dir.path, opt);  // clean open: the index is trusted

  // Silent bitrot after the open — only a scrub re-read can see it.
  const auto recs = store::testutil::parse_segment_records(segs[1]);
  ASSERT_GT(recs.size(), 1u);
  auto image = store::testutil::slurp(segs[1]);
  image[recs[1].offset + store::kRecordHeaderSize + 1] ^= 0x40;
  store::testutil::spit(segs[1], image, image.size());
  const std::uint64_t damaged_seq = recs[1].sequence;

  log.bind_metrics(service.metrics(), nullptr);
  service.attach_store(&log);
  server::LoopbackClient client(service);
  auto scrub_all = [&](std::uint64_t id) {
    RequestFrame req;
    req.id = id;
    req.opcode = Opcode::kScrub;
    return client.call(req);
  };

  // Episode 1: the scrub's own reads fail (injected EIO on every segment).
  // Each failure is a counted error inside an OK answer — unattended
  // maintenance must never surface disk trouble as an exception.
  {
    fault::Spec eio;
    eio.action = fault::Action::kFire;
    const fault::ScopedFault guard("store.scrub.read", eio);
    const auto resp = scrub_all(1);
    ASSERT_EQ(resp.status, Status::kOk);
    const std::string json(resp.payload.begin(), resp.payload.end());
    EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
  }

  // Episode 2: disarmed, the scrub reaches the disk and finds the bitrot.
  {
    const auto resp = scrub_all(2);
    ASSERT_EQ(resp.status, Status::kOk);
    const std::string json(resp.payload.begin(), resp.payload.end());
    EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
  }

  // The damage is quarantined — the lost sequence answers a typed gap — and
  // the healthy neighbours still read back byte-exact.
  try {
    (void)log.read(damaged_seq);
    FAIL() << "scrubbed-out record still readable";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.kind(), store::StoreError::Kind::kGap);
  }
  EXPECT_EQ(log.read(1), store::testutil::record_payload(1));
  EXPECT_EQ(log.read(50), store::testutil::record_payload(50));

  // The tally reached the shared registry: a nonzero scrub-error counter in
  // the same stats document operators poll.
  const std::string stats = service.stats_json();
  const auto name_at = stats.find("\"store_scrub_errors_total\"");
  ASSERT_NE(name_at, std::string::npos) << stats;
  const auto value_at = stats.find("\"value\":", name_at);
  ASSERT_NE(value_at, std::string::npos) << stats;
  EXPECT_NE(stats[value_at + 8], '0') << stats.substr(name_at, 80);

  // And the service itself is unharmed.
  expect_service_healthy(service, wl::make_corpus("mixed", 8 * 1024));
}

TEST(Chaos, SeededEpisodesAreReproducible) {
  fault::Spec spec;
  spec.action = fault::Action::kFire;
  spec.probability = 0.5;
  spec.seed = 4242;

  auto pattern = [&] {
    fault::arm("stream.channel.stall", spec);
    std::vector<bool> fired;
    fired.reserve(64);
    for (int i = 0; i < 64; ++i) fired.push_back(fault::fires("stream.channel.stall"));
    fault::disarm("stream.channel.stall");
    return fired;
  };
  const auto first = pattern();
  const auto second = pattern();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

/// Blocking loopback connect for misbehaving-client roles (idle, slow-loris).
int chaos_raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint64_t chaos_counter(Service& service, const char* name, const char* reason) {
  return service.metrics().counter(name, {{"reason", reason}}).value();
}

// Eviction storm: misbehaving connections (idle holders and a slow-loris
// header trickler) share the server with well-behaved compressing clients.
// Contract: the lifecycle layer evicts the abusers on its timeouts while the
// honest traffic keeps completing, and the server stays healthy after.
TEST(Chaos, EvictionStormEvictsAbusersWhileHonestTrafficCompletes) {
  const auto corpus = wl::make_corpus("mixed", 64 * 1024);
  Service service(chaos_config());
  server::TcpServerConfig tcfg;
  tcfg.idle_timeout_ms = 150;
  tcfg.read_progress_timeout_ms = 150;
  tcfg.write_stall_timeout_ms = 1000;
  tcfg.max_write_buf_bytes = 4 * 1024 * 1024;
  tcfg.max_conns = 32;
  server::TcpServer tcp(service, /*port=*/0, tcfg);
  std::thread server_thread([&] { tcp.run(); });
  const std::uint16_t port = tcp.port();

  // Abusers: two idle holders and two slow-loris sockets that trickle a
  // partial header and then stop making progress.
  std::vector<int> abusers;
  for (int i = 0; i < 2; ++i) abusers.push_back(chaos_raw_connect(port));
  for (int i = 0; i < 2; ++i) {
    const int fd = chaos_raw_connect(port);
    if (fd >= 0) {
      const char prefix[4] = {'L', 'Z', 'R', 'Q'};
      (void)::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL);
    }
    abusers.push_back(fd);
  }

  std::atomic<int> honest_ok{0};
  std::vector<std::thread> honest;
  for (unsigned t = 0; t < 2; ++t) {
    honest.emplace_back([&, t] {
      rng::Xoshiro256 rng(415 + t);
      std::unique_ptr<server::TcpClient> client;
      for (int i = 0; i < 6; ++i) {
        const std::size_t chunk = 512 + rng.next_below(1024);
        const std::size_t off = rng.next_below(corpus.size() - chunk);
        const std::vector<std::uint8_t> data(
            corpus.begin() + static_cast<std::ptrdiff_t>(off),
            corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
        try {
          if (!client) client = std::make_unique<server::TcpClient>("127.0.0.1", port);
          const auto resp = client->call(compress_request(
              static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(i), data));
          if (resp.status == Status::kOk &&
              deflate::zlib_decompress(resp.payload) == data) {
            honest_ok.fetch_add(1);
          }
        } catch (const std::exception&) {
          client.reset();
        }
        std::this_thread::sleep_for(30ms);
      }
    });
  }
  for (auto& th : honest) th.join();

  // All four abusers must be evicted with typed reasons within the episode.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  auto evicted = [&] {
    return chaos_counter(service, "server_conns_evicted_total", "idle") +
           chaos_counter(service, "server_conns_evicted_total", "slow_read");
  };
  while (evicted() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(chaos_counter(service, "server_conns_evicted_total", "idle"), 2u);
  EXPECT_GE(chaos_counter(service, "server_conns_evicted_total", "slow_read"), 2u);
  EXPECT_GE(honest_ok.load(), 1);

  // Post-storm health check over the wire on a fresh connection.
  {
    server::TcpClient client("127.0.0.1", port);
    RequestFrame ping;
    ping.id = 0xFEED;
    ping.opcode = Opcode::kPing;
    ASSERT_EQ(client.call(ping).status, Status::kOk);
    const std::vector<std::uint8_t> data(corpus.begin(), corpus.begin() + 4096);
    const auto resp = client.call(compress_request(0xC0FFEE, data));
    ASSERT_EQ(resp.status, Status::kOk);
    ASSERT_EQ(deflate::zlib_decompress(resp.payload), data);
  }

  for (const int fd : abusers) {
    if (fd >= 0) ::close(fd);
  }
  tcp.stop();
  server_thread.join();
}

// Brownout episode: slow workers push queue wait past the threshold; the
// server must shed bulky opcodes with BUSY at the frame header while STATS
// keeps answering, then exit brownout and serve bulky work again once the
// pressure stops.
TEST(Chaos, BrownoutShedsBulkyAnswersStatsAndRecovers) {
  const auto corpus = wl::make_corpus("mixed", 64 * 1024);
  ServiceConfig cfg = chaos_config();
  cfg.workers = 1;
  cfg.queue_depth = 32;
  Service service(cfg);
  server::TcpServerConfig tcfg;
  tcfg.brownout_queue_wait_us = 1000;  // 1 ms: trivially exceeded by the delay fault
  server::TcpServer tcp(service, /*port=*/0, tcfg);
  std::thread server_thread([&] { tcp.run(); });
  const std::uint16_t port = tcp.port();

  bool saw_brownout_busy = false;
  {
    fault::Spec slow;
    slow.action = fault::Action::kDelay;
    slow.delay_ms = 30;
    slow.probability = 1.0;
    const fault::ScopedFault guard("server.worker.pre_compress", slow);

    std::atomic<bool> stop_pressure{false};
    std::thread pressure([&] {
      rng::Xoshiro256 rng(991);
      std::unique_ptr<server::TcpClient> client;
      std::uint64_t id = 1;
      while (!stop_pressure.load()) {
        try {
          if (!client) client = std::make_unique<server::TcpClient>("127.0.0.1", port);
          const std::size_t off = rng.next_below(corpus.size() - 2048);
          (void)client->call(compress_request(
              id++, {corpus.begin() + static_cast<std::ptrdiff_t>(off),
                     corpus.begin() + static_cast<std::ptrdiff_t>(off + 2048)}));
        } catch (const std::exception&) {
          client.reset();
        }
      }
    });

    // Probe until a bulky request is shed with BUSY by the brownout gate.
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    std::unique_ptr<server::TcpClient> probe;
    std::uint64_t probe_id = 0x9000;
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        if (!probe) probe = std::make_unique<server::TcpClient>("127.0.0.1", port);
        const auto resp = probe->call(compress_request(
            probe_id++, {corpus.begin(), corpus.begin() + 1024}));
        if (resp.status == Status::kBusy &&
            chaos_counter(service, "server_frames_shed_total", "brownout") >= 1) {
          saw_brownout_busy = true;
          break;
        }
      } catch (const std::exception&) {
        probe.reset();
      }
      std::this_thread::sleep_for(10ms);
    }
    EXPECT_TRUE(saw_brownout_busy);

    // Control plane stays answered while the brownout gate is shedding.
    if (saw_brownout_busy) {
      server::TcpClient stats_client("127.0.0.1", port);
      RequestFrame stats;
      stats.id = 0x57A75;
      stats.opcode = Opcode::kStats;
      const auto resp = stats_client.call(stats);
      EXPECT_EQ(resp.status, Status::kOk);
      EXPECT_FALSE(resp.payload.empty());
    }
    if (saw_brownout_busy) {
      EXPECT_GE(service.metrics().counter("server_brownout_entered_total").value(), 1u);
    }

    stop_pressure.store(true);
    pressure.join();
  }

  // Pressure gone, fault disarmed: brownout must clear and bulky work must
  // be admitted again.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool recovered = false;
  std::unique_ptr<server::TcpClient> client;
  std::uint64_t id = 0xA000;
  const std::vector<std::uint8_t> data(corpus.begin(), corpus.begin() + 4096);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      if (!client) client = std::make_unique<server::TcpClient>("127.0.0.1", port);
      const auto resp = client->call(compress_request(id++, data));
      if (resp.status == Status::kOk && deflate::zlib_decompress(resp.payload) == data) {
        recovered = true;
        break;
      }
    } catch (const std::exception&) {
      client.reset();
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(recovered);

  tcp.stop();
  server_thread.join();
}

TEST(Chaos, DisarmedPointsAreInert) {
  fault::disarm_all();
  for (const char* point : fault::all_points()) {
    EXPECT_FALSE(fault::fires(point));
    EXPECT_NO_THROW(fault::point(point));
    std::vector<std::uint8_t> buf{1, 2, 3};
    const auto before = buf;
    fault::corrupt(point, buf);
    EXPECT_EQ(buf, before);
  }
}

}  // namespace
}  // namespace lzss
