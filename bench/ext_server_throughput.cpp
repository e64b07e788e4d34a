// Extension: the compression service under concurrent load.
//
// N loadgen threads drive the full wire path (frame encode → session parse →
// bounded queue → worker pool → frame decode) over the in-process loopback
// transport. Design-space axes the paper's figures don't cover:
//   * reject (BUSY) rate vs. the bounded queue depth under saturation —
//     the software twin of the valid/ready backpressure in stream/channel —
//     and what client-side retry with backoff recovers of it.
// Behind `--durable`: goodput of the LOG_APPEND opcode per fsync policy,
// i.e. what each durability guarantee costs at the wire.
// Single-request GB/s of the blocked container (COMPRESS_BLOCKED) vs block
// size vs engines — the fan-out path where one request spreads over the
// whole pool.
// Behind `--maintenance`: LOG_APPEND goodput with the background
// compaction + scrub thread running against a gappy archive vs without —
// the interference cost of self-healing, as a ratio.
// Also in the default artifact, standalone behind `--overload`:
// served-vs-shed goodput and the latency tail of *admitted* requests when
// the real TCP front end is driven past capacity with the brownout gate
// armed — what overload control buys at 1-4x oversubscription.
// Per-request throughput, per-layer costs and engine scaling live in the
// perfbench harness (perfbench/README.md).
//
// Besides the human tables, the default run writes BENCH_server.json
// (override with `--json <path>`): the sweep rows plus a full STATS-opcode
// snapshot fetched over the loopback wire, so CI can archive and diff the
// machine-readable numbers.
#include "bench_util.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "obs/metrics.hpp"
#include "server/retry.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "store/maintenance.hpp"

namespace {

using namespace lzss;

std::string g_json_path = "BENCH_server.json";

struct LoadResult {
  double mb_per_s = 0;
  double reject_rate = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t retries = 0;
};

/// Closed-loop load: each thread sends @p requests_per_thread compress
/// requests of @p chunk bytes back to back. With a null @p retry policy a
/// BUSY answer counts as a reject and the loadgen moves on; with a policy
/// each request backs off and re-submits, so "busy" counts only requests
/// that stayed rejected after the final attempt.
LoadResult run_load(server::Service& service, const std::vector<std::uint8_t>& corpus,
                    unsigned threads, std::size_t chunk, int requests_per_thread,
                    const server::RetryPolicy* retry = nullptr) {
  std::atomic<std::uint64_t> ok{0}, busy{0}, ok_bytes{0}, retried{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      server::LoopbackClient client(service);
      for (int i = 0; i < requests_per_thread; ++i) {
        // Stride through the corpus so requests are not byte-identical.
        const std::size_t off = ((static_cast<std::size_t>(t) * 7919 +
                                  static_cast<std::size_t>(i) * 104729) *
                                 chunk) %
                                (corpus.size() - chunk);
        server::RequestFrame req;
        req.id = static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i);
        req.opcode = server::Opcode::kCompress;
        req.payload.assign(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                           corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
        server::ResponseFrame resp;
        if (retry != nullptr) {
          // Per-thread deterministic jitter: seed by thread id so backoff
          // sleeps decorrelate instead of re-arriving in lockstep.
          server::RetryPolicy policy = *retry;
          policy.seed += t;
          server::RetryStats rs;
          resp = server::call_with_retry(
              [&client](const server::RequestFrame& r) { return client.call(r); }, req, policy,
              &rs);
          retried.fetch_add(rs.retries);
        } else {
          resp = client.call(req);
        }
        if (resp.status == server::Status::kOk) {
          ok.fetch_add(1);
          ok_bytes.fetch_add(chunk);
        } else if (resp.status == server::Status::kBusy) {
          busy.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  LoadResult r;
  r.ok = ok.load();
  r.busy = busy.load();
  r.retries = retried.load();
  r.mb_per_s = secs > 0 ? static_cast<double>(ok_bytes.load()) / 1e6 / secs : 0;
  const double total = static_cast<double>(r.ok + r.busy);
  r.reject_rate = total > 0 ? static_cast<double>(r.busy) / total : 0;
  return r;
}

struct BlockedResult {
  double compress_gb_s = 0;    ///< GB/s (10^9 bytes) over the raw input
  double decompress_gb_s = 0;  ///< GB/s over the raw output
  std::uint64_t helper_blocks = 0;
  std::size_t container_bytes = 0;
  bool ok = false;
};

/// One COMPRESS_BLOCKED request for the whole @p corpus, then a DECOMPRESS
/// of the container it produced. Unlike run_load() this measures how far a
/// *single* request can spread across the pool, so throughput is per
/// request, not aggregate, and the helper-block counter says how much of
/// the work left the parent worker.
BlockedResult run_blocked(server::Service& service, const std::vector<std::uint8_t>& corpus) {
  BlockedResult r;
  server::LoopbackClient client(service);

  server::RequestFrame req;
  req.id = 1;
  req.opcode = server::Opcode::kCompressBlocked;
  req.payload = corpus;
  auto t0 = std::chrono::steady_clock::now();
  auto resp = client.call(req);
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (resp.status != server::Status::kOk) return r;
  r.compress_gb_s = secs > 0 ? static_cast<double>(corpus.size()) / 1e9 / secs : 0;
  r.container_bytes = resp.payload.size();
  r.helper_blocks = service.metrics().counter("container_helper_blocks_total").value();

  server::RequestFrame dreq;
  dreq.id = 2;
  dreq.opcode = server::Opcode::kDecompress;
  dreq.payload = std::move(resp.payload);
  t0 = std::chrono::steady_clock::now();
  resp = client.call(dreq);
  secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (resp.status != server::Status::kOk || resp.payload.size() != corpus.size()) return r;
  r.decompress_gb_s = secs > 0 ? static_cast<double>(corpus.size()) / 1e9 / secs : 0;
  r.ok = true;
  return r;
}

struct OverloadResult {
  double goodput_mb_s = 0;  ///< MB/s of *served* request bytes (shed excluded)
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      ///< BUSY answers: queue-full plus brownout gate
  std::uint64_t transport = 0; ///< dropped connections (reconnected and moved on)
  double p50_ms = 0;           ///< client-observed latency of served requests
  double p99_ms = 0;
  bool stats_ok = false;  ///< a STATS probe fired mid-overload must succeed
  std::uint64_t brownout_shed = 0;
  std::uint64_t brownouts = 0;
};

/// Closed-loop overload over the *real* TCP transport: a small worker pool
/// behind a shallow queue and an armed brownout gate, driven by
/// `oversub x workers` loadgen threads. The contract measured: served
/// requests keep a flat latency tail because the excess is shed at the frame
/// header (BUSY) instead of queueing, and the control plane (STATS) stays
/// answerable throughout.
OverloadResult run_overload(const std::vector<std::uint8_t>& corpus, unsigned oversub,
                            std::size_t chunk, int requests_per_thread) {
  server::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 8;
  server::Service service(cfg);
  server::TcpServerConfig tcfg;
  tcfg.max_conns = 64;
  tcfg.brownout_queue_wait_us = 20'000;  // 20 ms queue-wait p99 trips the gate
  tcfg.drain_deadline_ms = 2000;
  server::TcpServer tcp(service, /*port=*/0, tcfg);
  std::thread server_thread([&] { tcp.run(); });
  const std::uint16_t port = tcp.port();

  const unsigned threads = cfg.workers * oversub;
  std::atomic<std::uint64_t> ok{0}, shed{0}, transport{0}, ok_bytes{0};
  std::mutex lat_mutex;
  std::vector<double> lat_ms;
  std::atomic<bool> probe_ok{false};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::unique_ptr<server::TcpClient> client;
      for (int i = 0; i < requests_per_thread; ++i) {
        const std::size_t off = ((static_cast<std::size_t>(t) * 7919 +
                                  static_cast<std::size_t>(i) * 104729) *
                                 chunk) %
                                (corpus.size() - chunk);
        server::RequestFrame req;
        req.id = static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i);
        req.opcode = server::Opcode::kCompress;
        req.payload.assign(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                           corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
        try {
          if (!client)
            client = std::make_unique<server::TcpClient>("127.0.0.1", port);
          const auto s0 = std::chrono::steady_clock::now();
          const auto resp = client->call(req);
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - s0)
                  .count();
          if (resp.status == server::Status::kOk) {
            ok.fetch_add(1);
            ok_bytes.fetch_add(chunk);
            const std::lock_guard<std::mutex> lock(lat_mutex);
            lat_ms.push_back(ms);
          } else if (resp.status == server::Status::kBusy) {
            shed.fetch_add(1);
          }
        } catch (const std::exception&) {
          transport.fetch_add(1);
          client.reset();
        }
      }
    });
  }

  // Control-plane probe while the loadgen is still hammering: STATS must be
  // admitted (never a bulky opcode) and answered even mid-brownout.
  std::thread prober([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    try {
      server::TcpClient stats_client("127.0.0.1", port);
      server::RequestFrame sreq;
      sreq.id = 0x57A75;
      sreq.opcode = server::Opcode::kStats;
      const auto resp = stats_client.call(sreq);
      probe_ok.store(resp.status == server::Status::kOk && !resp.payload.empty());
    } catch (const std::exception&) {
      probe_ok.store(false);
    }
  });

  for (auto& th : pool) th.join();
  prober.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  OverloadResult r;
  r.ok = ok.load();
  r.shed = shed.load();
  r.transport = transport.load();
  r.goodput_mb_s = secs > 0 ? static_cast<double>(ok_bytes.load()) / 1e6 / secs : 0;
  r.stats_ok = probe_ok.load();
  r.brownout_shed =
      service.metrics().counter("server_frames_shed_total", {{"reason", "brownout"}}).value();
  r.brownouts = service.metrics().counter("server_brownout_entered_total").value();
  std::sort(lat_ms.begin(), lat_ms.end());
  if (!lat_ms.empty()) {
    r.p50_ms = lat_ms[lat_ms.size() / 2];
    r.p99_ms = lat_ms[std::min(lat_ms.size() - 1, (lat_ms.size() * 99) / 100)];
  }

  tcp.stop();
  server_thread.join();
  return r;
}

/// Prints the overload table and returns the rows as a JSON array, so the
/// same sweep feeds both the default artifact and the standalone
/// `--overload` run.
std::string overload_sweep(const std::vector<std::uint8_t>& corpus) {
  const std::size_t chunk = 64 * 1024;
  std::printf(
      "\n-- overload: 64 KiB compress at Nx capacity over real TCP (2 engines, queue 8,\n"
      "   brownout gate armed at 20 ms queue-wait p99; shed = BUSY at the frame header) --\n");
  std::printf("%-8s %9s %13s %9s %9s %9s %9s %10s %9s\n", "oversub", "threads", "goodput MB/s",
              "served", "shed", "p50 ms", "p99 ms", "stats ok", "brownout");
  std::string json = "[";
  char jbuf[320];
  bool first = true;
  for (const unsigned oversub : {1u, 2u, 4u}) {
    const auto r = run_overload(corpus, oversub, chunk, /*requests_per_thread=*/24);
    char cell[16];
    std::snprintf(cell, sizeof(cell), "%ux", oversub);
    std::printf("%-8s %9u %13.2f %9llu %9llu %9.2f %9.2f %10s %9llu\n", cell, 2 * oversub,
                r.goodput_mb_s, static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed), r.p50_ms, r.p99_ms,
                r.stats_ok ? "yes" : "NO",
                static_cast<unsigned long long>(r.brownout_shed));
    std::snprintf(jbuf, sizeof(jbuf),
                  "%s{\"oversub\":%u,\"threads\":%u,\"goodput_mb_s\":%.3f,\"served\":%llu,"
                  "\"shed\":%llu,\"transport_errors\":%llu,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                  "\"stats_ok\":%s,\"brownout_shed\":%llu,\"brownouts\":%llu}",
                  first ? "" : ",", oversub, 2 * oversub, r.goodput_mb_s,
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.transport), r.p50_ms, r.p99_ms,
                  r.stats_ok ? "true" : "false",
                  static_cast<unsigned long long>(r.brownout_shed),
                  static_cast<unsigned long long>(r.brownouts));
    json += jbuf;
    first = false;
  }
  json += "]";
  return json;
}

/// `--overload`: just the overload sweep, written as its own JSON artifact.
void print_overload_tables() {
  bench::print_title("EXTENSION — OVERLOAD CONTROL AT THE TCP FRONT END",
                     "closed-loop 64 KiB compress at 1-4x capacity, brownout gate armed");
  const std::size_t bytes = std::max<std::size_t>(bench::sample_bytes(2), 1 << 20);
  const auto& corpus = bench::cached_corpus("wiki", bytes);
  std::string json = "{\"bench\":\"server_overload\",\"chunk_bytes\":65536,\"overload_sweep\":";
  json += overload_sweep(corpus);
  json += "}\n";
  std::FILE* jf = std::fopen(g_json_path.c_str(), "wb");
  if (jf != nullptr) {
    std::fwrite(json.data(), 1, json.size(), jf);
    std::fclose(jf);
    std::printf("\nwrote %s\n", g_json_path.c_str());
  }
}

void print_tables() {
  bench::print_title("EXTENSION — COMPRESSION SERVICE UNDER LOAD (loopback transport)",
                     "N loadgen threads x 64 KiB compress requests, full wire path");

  const std::size_t bytes = std::max<std::size_t>(bench::sample_bytes(2), 1 << 20);
  const auto& corpus = bench::cached_corpus("wiki", bytes);
  const std::size_t chunk = 64 * 1024;

  std::string json = "{\"bench\":\"server_throughput\",\"chunk_bytes\":65536";
  char jbuf[256];
  std::string stats_payload;  // last queue-sweep STATS response, verbatim

  std::printf("\n-- backpressure vs queue depth (1 engine, 12 loadgen threads) --\n");
  std::printf("%-12s %9s %9s %12s %16s\n", "queue depth", "ok", "busy", "reject rate",
              "queue high water");
  json += ",\"queue_sweep\":[";
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    server::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_depth = depth;
    server::Service service(cfg);
    const auto r = run_load(service, corpus, /*threads=*/12, chunk,
                            /*requests_per_thread=*/4);
    const auto stats = service.snapshot();
    std::printf("%-12zu %9llu %9llu %11.1f%% %16llu\n", depth,
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.busy), 100 * r.reject_rate,
                static_cast<unsigned long long>(stats.queue_high_water));
    std::snprintf(jbuf, sizeof(jbuf),
                  "%s{\"queue_depth\":%zu,\"ok\":%llu,\"busy\":%llu,\"reject_rate\":%.4f,"
                  "\"queue_high_water\":%llu}",
                  depth == 1 ? "" : ",", depth, static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.busy), r.reject_rate,
                  static_cast<unsigned long long>(stats.queue_high_water));
    json += jbuf;
    // Fetch the machine-readable snapshot through the same wire path the
    // loadgen used; the last sweep's payload lands in the JSON artifact.
    server::LoopbackClient client(service);
    server::RequestFrame sreq;
    sreq.opcode = server::Opcode::kStats;
    const auto sresp = client.call(sreq);
    if (sresp.status == server::Status::kOk)
      stats_payload.assign(sresp.payload.begin(), sresp.payload.end());
  }
  json += "]";

  // Same saturated setup (1 engine, shallow queue, 12 threads) with and
  // without client-side retry: backoff converts rejects into completed work
  // at the cost of added client latency.
  std::printf("\n-- retry with backoff vs give-up (1 engine, queue depth 2, 12 threads) --\n");
  std::printf("%-22s %9s %9s %9s %12s\n", "client policy", "ok", "busy", "retries",
              "goodput rate");
  json += ",\"retry_sweep\":[";
  for (const bool with_retry : {false, true}) {
    server::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_depth = 2;
    server::Service service(cfg);
    server::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.base_delay_ms = 1;
    policy.max_delay_ms = 64;
    const auto r = run_load(service, corpus, /*threads=*/12, chunk,
                            /*requests_per_thread=*/4, with_retry ? &policy : nullptr);
    const double total = static_cast<double>(r.ok + r.busy);
    std::printf("%-22s %9llu %9llu %9llu %11.1f%%\n",
                with_retry ? "retry x5, jitter" : "give up on BUSY",
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.busy),
                static_cast<unsigned long long>(r.retries),
                total > 0 ? 100 * static_cast<double>(r.ok) / total : 0);
    std::snprintf(jbuf, sizeof(jbuf),
                  "%s{\"retry\":%s,\"ok\":%llu,\"busy\":%llu,\"retries\":%llu}",
                  with_retry ? "," : "", with_retry ? "true" : "false",
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.busy),
                  static_cast<unsigned long long>(r.retries));
    json += jbuf;
  }
  json += "]";

  // Blocked container: one big request split into fixed-size blocks and
  // fanned across the worker pool, so a single caller can occupy every
  // engine. GB here is decimal (10^9 bytes). The sweep shows the trade:
  // small blocks parallelise better but restart the dictionary more often
  // (bigger container), big blocks the reverse.
  std::printf("\n-- blocked container: one 8 MiB COMPRESS_BLOCKED request per cell --\n");
  std::printf("%-10s %8s %14s %16s %14s %16s\n", "block KiB", "engines", "compress GB/s",
              "decompress GB/s", "helper blocks", "container bytes");
  const auto& big = bench::cached_corpus("x2e", 8u << 20);
  json += ",\"blocked_sweep\":[";
  bool first_blocked = true;
  for (const unsigned block_kb : {64u, 256u, 1024u}) {
    for (const unsigned engines : {1u, 2u, 4u}) {
      server::ServiceConfig cfg;
      cfg.workers = engines;
      cfg.queue_depth = 64;
      cfg.block_bytes = static_cast<std::size_t>(block_kb) * 1024;
      server::Service service(cfg);
      const auto r = run_blocked(service, big);
      if (!r.ok) {
        std::printf("%-10u %8u   (request failed)\n", block_kb, engines);
        continue;
      }
      std::printf("%-10u %8u %14.3f %16.3f %14llu %16zu\n", block_kb, engines, r.compress_gb_s,
                  r.decompress_gb_s, static_cast<unsigned long long>(r.helper_blocks),
                  r.container_bytes);
      std::snprintf(jbuf, sizeof(jbuf),
                    "%s{\"block_kb\":%u,\"engines\":%u,\"compress_gb_s\":%.4f,"
                    "\"decompress_gb_s\":%.4f,\"helper_blocks\":%llu,\"container_bytes\":%zu}",
                    first_blocked ? "" : ",", block_kb, engines, r.compress_gb_s,
                    r.decompress_gb_s, static_cast<unsigned long long>(r.helper_blocks),
                    r.container_bytes);
      json += jbuf;
      first_blocked = false;
    }
  }
  json += "]";

  // Overload control over the real TCP transport: served-vs-shed goodput and
  // the latency tail of admitted requests at 1-4x capacity.
  json += ",\"overload_sweep\":";
  json += overload_sweep(corpus);

  // The STATS payload is already JSON ({"service":...,"metrics":[...]}) —
  // embed it verbatim.
  json += ",\"stats\":";
  json += stats_payload.empty() ? "null" : stats_payload;
  json += "}\n";

  std::FILE* jf = std::fopen(g_json_path.c_str(), "wb");
  if (jf == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", g_json_path.c_str());
  } else {
    std::fwrite(json.data(), 1, json.size(), jf);
    std::fclose(jf);
    std::printf("\nwrote %s\n", g_json_path.c_str());
  }
}

/// `--durable`: goodput of the LOG_APPEND opcode per fsync policy. The
/// interesting number is not the absolute MB/s (that is the disk's) but the
/// ratio between policies: what an "acked means on disk" guarantee costs
/// relative to letting the OS cache absorb the stream.
void print_durable_tables() {
  bench::print_title("EXTENSION — DURABLE LOG APPENDS PER FSYNC POLICY (loopback transport)",
                     "4 loadgen threads x 4 KiB LOG_APPEND records through the service");

  const auto& corpus = bench::cached_corpus("wiki", 1 << 20);
  const std::size_t chunk = 4 * 1024;
  const unsigned threads = 4;
  const int per_thread = 200;

  std::printf("\n%-14s %12s %10s %9s %9s %14s\n", "fsync policy", "goodput MB/s", "records",
              "fsyncs", "segments", "stored bytes");
  for (const store::FsyncPolicy policy :
       {store::FsyncPolicy::kNever, store::FsyncPolicy::kInterval,
        store::FsyncPolicy::kEveryRecord}) {
    char tmpl[] = "/tmp/lzss_bench_store_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      std::printf("(skipping: cannot create a temp store directory)\n");
      return;
    }

    store::StoreOptions opt;
    opt.fsync_policy = policy;
    opt.segment_bytes = 4 * 1024 * 1024;
    std::uint64_t ok = 0;
    std::uint64_t ok_bytes = 0;
    double secs = 0;
    store::StoreStats ss;
    {
      store::LogStore log(dir, opt);
      server::ServiceConfig cfg;
      cfg.workers = 2;
      server::Service service(cfg);
      service.attach_store(&log);

      std::atomic<std::uint64_t> acked{0};
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          server::LoopbackClient client(service);
          for (int i = 0; i < per_thread; ++i) {
            const std::size_t off = ((static_cast<std::size_t>(t) * 7919 +
                                      static_cast<std::size_t>(i) * 104729) *
                                     chunk) %
                                    (corpus.size() - chunk);
            server::RequestFrame req;
            req.id = static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i);
            req.opcode = server::Opcode::kLogAppend;
            req.payload.assign(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                               corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
            if (client.call(req).status == server::Status::kOk) acked.fetch_add(1);
          }
        });
      }
      for (auto& th : pool) th.join();
      secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      ok = acked.load();
      ok_bytes = ok * chunk;
      ss = log.stats();
    }
    std::filesystem::remove_all(dir);

    std::printf("%-14s %12.2f %10llu %9llu %9llu %14llu\n", store::fsync_policy_name(policy),
                secs > 0 ? static_cast<double>(ok_bytes) / 1e6 / secs : 0,
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(ss.fsyncs),
                static_cast<unsigned long long>(ss.segments),
                static_cast<unsigned long long>(ss.bytes_stored));
  }
}

/// `--maintenance`: LOG_APPEND goodput with and without the background
/// maintenance thread (compaction + scrub) chewing on the same store. Both
/// runs start from byte-identical copies of a pre-seeded gappy archive, so
/// the interference ratio isolates what self-healing costs the foreground.
void print_maintenance_tables() {
  bench::print_title(
      "EXTENSION — FOREGROUND GOODPUT UNDER BACKGROUND MAINTENANCE",
      "4 loadgen threads x 4 KiB LOG_APPEND vs concurrent compaction + scrub");

  const auto& corpus = bench::cached_corpus("wiki", 1 << 20);
  const std::size_t chunk = 4 * 1024;
  const unsigned threads = 4;
  const int per_thread = 150;

  // Seed one gappy archive: incompressible records in small segments, then
  // a flipped byte in every other sealed segment, quarantined on reopen.
  // Both measurement runs get a flat copy so they compact identical work.
  char tmpl[] = "/tmp/lzss_bench_maint_XXXXXX";
  const char* seed_dir = ::mkdtemp(tmpl);
  if (seed_dir == nullptr) {
    std::printf("(skipping: cannot create a temp store directory)\n");
    return;
  }
  {
    store::StoreOptions opt;
    opt.fsync_policy = store::FsyncPolicy::kNever;
    opt.segment_bytes = 8 * 1024;
    store::LogStore log(seed_dir, opt);
    rng::Xoshiro256 rng(4242);
    std::vector<std::uint8_t> rec(2048);
    for (int i = 0; i < 80; ++i) {
      for (auto& b : rec) b = static_cast<std::uint8_t>(rng.next_below(256));
      log.append(rec);
    }
    log.flush();
  }
  {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(seed_dir)) {
      if (e.path().extension() != ".lzseg") continue;
      if (++n % 2 != 0) continue;  // every other segment gets bitrot
      std::FILE* f = std::fopen(e.path().c_str(), "r+b");
      if (f == nullptr) continue;
      std::fseek(f, 70, SEEK_SET);
      std::fputc('!', f);
      std::fclose(f);
    }
    std::filesystem::remove(std::string(seed_dir) + "/index.lzsx");
  }

  std::printf("\n%-22s %12s %9s %12s %9s %9s\n", "mode", "goodput MB/s", "records",
              "compactions", "scrubbed", "ratio");
  double base = 0;
  std::string json = "{\"bench\":\"server_maintenance\",\"chunk_bytes\":4096,\"modes\":[";
  char jbuf[256];
  for (const bool with_maintenance : {false, true}) {
    char run_tmpl[] = "/tmp/lzss_bench_maint_run_XXXXXX";
    const char* run_dir = ::mkdtemp(run_tmpl);
    if (run_dir == nullptr) break;
    for (const auto& e : std::filesystem::directory_iterator(seed_dir)) {
      if (e.is_regular_file())
        std::filesystem::copy_file(e.path(),
                                   std::filesystem::path(run_dir) / e.path().filename());
    }

    store::StoreOptions opt;
    opt.fsync_policy = store::FsyncPolicy::kInterval;
    opt.segment_bytes = 8 * 1024;
    std::uint64_t ok = 0;
    double secs = 0;
    store::MaintenanceStats ms;
    {
      store::LogStore log(run_dir, opt);  // quarantines the seeded bitrot
      server::ServiceConfig cfg;
      cfg.workers = 2;
      server::Service service(cfg);
      service.attach_store(&log);
      store::MaintenanceConfig mcfg;
      mcfg.compact_trigger_garbage_pct = 1.0;
      mcfg.scrub_interval_s = 1;
      mcfg.tick_interval_ms = 10;
      store::Maintenance maint(log, mcfg);
      if (with_maintenance) maint.start();

      std::atomic<std::uint64_t> acked{0};
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          server::LoopbackClient client(service);
          for (int i = 0; i < per_thread; ++i) {
            const std::size_t off = ((static_cast<std::size_t>(t) * 7919 +
                                      static_cast<std::size_t>(i) * 104729) *
                                     chunk) %
                                    (corpus.size() - chunk);
            server::RequestFrame req;
            req.id = static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i);
            req.opcode = server::Opcode::kLogAppend;
            req.payload.assign(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                               corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
            if (client.call(req).status == server::Status::kOk) acked.fetch_add(1);
          }
        });
      }
      for (auto& th : pool) th.join();
      secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      ok = acked.load();
      if (with_maintenance) maint.stop();
      ms = maint.stats();
    }
    std::filesystem::remove_all(run_dir);

    const double mb_per_s =
        secs > 0 ? static_cast<double>(ok * chunk) / 1e6 / secs : 0;
    if (!with_maintenance) base = mb_per_s;
    const double ratio = base > 0 ? mb_per_s / base : 0;
    std::printf("%-22s %12.2f %9llu %12llu %9llu %8.2fx\n",
                with_maintenance ? "compaction + scrub on" : "baseline (off)", mb_per_s,
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(ms.compactions),
                static_cast<unsigned long long>(ms.scrubbed_segments), ratio);
    std::snprintf(jbuf, sizeof(jbuf),
                  "%s{\"maintenance\":%s,\"mb_per_s\":%.3f,\"records\":%llu,"
                  "\"compactions\":%llu,\"scrubbed_segments\":%llu,"
                  "\"interference_ratio\":%.4f}",
                  with_maintenance ? "," : "", with_maintenance ? "true" : "false", mb_per_s,
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(ms.compactions),
                  static_cast<unsigned long long>(ms.scrubbed_segments), ratio);
    json += jbuf;
  }
  std::filesystem::remove_all(seed_dir);
  json += "]}\n";

  std::FILE* jf = std::fopen(g_json_path.c_str(), "wb");
  if (jf != nullptr) {
    std::fwrite(json.data(), 1, json.size(), jf);
    std::fclose(jf);
    std::printf("\nwrote %s\n", g_json_path.c_str());
  }
}

void BM_LoopbackCompress64K(benchmark::State& state) {
  static server::Service service([] {
    server::ServiceConfig cfg;
    cfg.workers = 2;
    return cfg;
  }());
  server::LoopbackClient client(service);
  const auto& corpus = bench::cached_corpus("wiki", 1 << 20);
  server::RequestFrame req;
  req.opcode = server::Opcode::kCompress;
  req.payload.assign(corpus.begin(), corpus.begin() + 64 * 1024);
  for (auto _ : state) {
    auto r = req;
    benchmark::DoNotOptimize(client.call(r).payload.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_LoopbackCompress64K)->Unit(benchmark::kMillisecond);

void BM_PingRoundTrip(benchmark::State& state) {
  static server::Service service([] {
    server::ServiceConfig cfg;
    cfg.workers = 1;
    return cfg;
  }());
  server::LoopbackClient client(service);
  server::RequestFrame req;
  req.opcode = server::Opcode::kPing;
  for (auto _ : state) {
    auto r = req;
    benchmark::DoNotOptimize(client.call(r).status);
  }
}
BENCHMARK(BM_PingRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  // `--durable` and `--json` are ours, not google-benchmark's, so strip them
  // before handing argv over. `--durable` swaps in the fsync-policy goodput
  // tables; `--json <path>` moves the machine-readable artifact.
  bool durable = false;
  bool maintenance = false;
  bool overload = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--durable") == 0) {
      durable = true;
    } else if (std::strcmp(argv[i], "--maintenance") == 0) {
      maintenance = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      g_json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return lzss::bench::run_bench_main(argc, argv,
                                     overload      ? print_overload_tables
                                     : maintenance ? print_maintenance_tables
                                     : durable     ? print_durable_tables
                                                   : print_tables);
}
