// Service-layer behavior over the in-process loopback transport (the full
// wire path minus sockets), plus one real-socket smoke test: round trips for
// both containers, backpressure (BUSY) on a saturated queue, and counter
// consistency.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "estimator/presets.hpp"
#include "fault/fault.hpp"
#include "hw/compressor.hpp"
#include "hw/functional.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/raw_container.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/retry.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "workloads/corpus.hpp"

namespace lzss::server {
namespace {

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  return cfg;
}

/// One counter of the service's registry, as STATS reports it.
std::uint64_t counter_value(const Service& service, std::string_view name,
                            const obs::Labels& labels = {}) {
  return service.metrics().counter(name, labels).value();
}

/// server_responses_total for the compress opcode and @p status.
std::uint64_t compress_responses(const Service& service, const char* status) {
  return counter_value(service, "server_responses_total",
                       {{"opcode", "compress"}, {"status", status}});
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

TEST(ServerService, ZlibRoundTripOverLoopback) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 32 * 1024);

  const auto resp = client.call(compress_request(42, data));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 42u);
  EXPECT_EQ(resp.adler, checksum::adler32(data));
  EXPECT_LT(resp.payload.size(), data.size());
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
}

TEST(ServerService, RawContainerRoundTripOverLoopback) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("x2e", 32 * 1024);

  const auto resp = client.call(compress_request(7, data, kFlagRawContainer));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.adler, checksum::adler32(data));
  EXPECT_EQ(core::raw_container_unpack(resp.payload), data);
}

TEST(ServerService, DecompressOpcodeInvertsCompress) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("mixed", 16 * 1024);

  for (const std::uint16_t flags : {std::uint16_t{0}, kFlagRawContainer}) {
    const auto compressed = client.call(compress_request(1, data, flags));
    ASSERT_EQ(compressed.status, Status::kOk);

    RequestFrame req;
    req.id = 2;
    req.opcode = Opcode::kDecompress;
    req.flags = flags;
    req.payload = compressed.payload;
    const auto restored = client.call(req);
    ASSERT_EQ(restored.status, Status::kOk);
    EXPECT_EQ(restored.payload, data);
    // DECOMPRESS reports the Adler of the reconstructed output.
    EXPECT_EQ(restored.adler, checksum::adler32(data));
  }
}

/// The hw backend's bytes for @p data under the default service config: the
/// twin's tokens as one fixed-Huffman block in a zlib container whose window
/// is the 4 KiB speed preset's 12 bits.
std::vector<std::uint8_t> hw_zlib_bytes(std::span<const std::uint8_t> data) {
  const hw::HwConfig hw = ServiceConfig{}.hw;
  EXPECT_EQ(hw.dict_bits, 12u);
  return deflate::zlib_wrap(deflate::deflate_fixed(hw::compress_tokens(hw, data)),
                            checksum::adler32(data), 12);
}

/// A multi-part zlib response built by hand: @p data cut into @p part-byte
/// pieces, each piece's @p tokens_of(data up to the piece's end, the piece's
/// offset) tokens as one fixed-Huffman block, and every non-final block
/// followed by an empty stored block (zlib's sync flush), all in one bit
/// stream and one zlib wrap of @p window_bits.
template <typename TokensOf>
std::vector<std::uint8_t> hw_part_bytes(std::span<const std::uint8_t> data, std::size_t part,
                                        unsigned window_bits, TokensOf tokens_of) {
  bits::BitWriter w;
  std::size_t begin = 0;
  do {
    const std::size_t len = std::min(part, data.size() - begin);
    const bool last = begin + len == data.size();
    deflate::write_fixed_block(w, tokens_of(data.first(begin + len), begin), last);
    if (!last) deflate::write_stored_block(w, {}, /*final_block=*/false);
    begin += len;
  } while (begin < data.size());
  return deflate::zlib_wrap(w.take(), checksum::adler32(data), window_bits);
}

constexpr MatchBackend kAllBackends[] = {MatchBackend::kHw, MatchBackend::kHashChain,
                                         MatchBackend::kGreedy};

/// The flags that pin @p backend on a COMPRESS.
std::uint16_t pinned(MatchBackend backend, std::uint16_t flags = 0) {
  return flags_with_matchfinder(flags, static_cast<std::uint8_t>(backend));
}

TEST(ServerService, CompressIsOneFixedBlockPerPart) {
  // Parts are 16 KiB on every preset and every backend, each primed with the
  // window before it.
  constexpr std::size_t kPart = container::kPartBytes;
  static_assert(kPart == 16 * 1024);
  const hw::HwConfig hw = ServiceConfig{}.hw;
  const auto corpus = wl::make_corpus("wiki", 320 * 1024);
  for (const MatchBackend backend : kAllBackends) {
    const container::TokenSource source = *match_source(backend, hw);
    const bool sw = backend != MatchBackend::kHw;
    const std::string name = match_backend_name(backend);
    for (const std::size_t size :
         {kPart - 1, kPart, kPart + 1, 2 * kPart, 2 * kPart + 1, corpus.size()}) {
      const std::string where = name + " " + std::to_string(size);
      const std::span<const std::uint8_t> data(corpus.data(), size);
      core::FinderStats finder;
      const auto expected = hw_part_bytes(
          data, kPart, 12, [&](std::span<const std::uint8_t> window, std::size_t prefix) {
            core::FinderStats part;
            auto tokens = container::source_tokens(source, window, prefix, nullptr, &part);
            finder += part;
            return tokens;
          });
      const auto one_stream_tokens =
          sw ? core::MatchFinderEncoder(std::get<core::MatchParams>(source)).encode(data)
             : hw::compress_tokens(hw, data);
      const auto one_stream = deflate::zlib_wrap(deflate::deflate_fixed(one_stream_tokens),
                                                 checksum::adler32(data), 12);
      // Primed parts cost about what one stream does (unprimed parts of this
      // wiki cost 1-2.4% more); one part is that stream, byte for byte.
      EXPECT_LE(static_cast<double>(expected.size()),
                1.005 * static_cast<double>(one_stream.size()))
          << where;
      if (size <= kPart) {
        EXPECT_EQ(expected, one_stream) << where;
      }

      Service service(small_config());  // fresh: its first hw request is the census sample
      LoopbackClient client(service);
      const std::vector<std::uint8_t> payload(data.begin(), data.end());
      const auto first = client.call(compress_request(1, payload, pinned(backend)));
      const auto second = client.call(compress_request(2, payload, pinned(backend)));
      ASSERT_EQ(first.status, Status::kOk) << where;
      ASSERT_EQ(second.status, Status::kOk) << where;
      EXPECT_EQ(first.payload, expected) << where;
      EXPECT_EQ(second.payload, expected) << where;
      EXPECT_EQ(deflate::zlib_decompress(second.payload), payload) << where;
      // A multi-part request's parts count as compress blocks; one part never
      // reaches the fan-out.
      const std::size_t parts = container::block_count_for(size, kPart);
      EXPECT_EQ(counter_value(service, "container_blocks_total", {{"op", "compress"}}),
                parts == 1 ? 0u : 2 * parts)
          << where;
      // A software finder counts each request once and its whole payload;
      // its probes and compared bytes sum over the parts.
      const obs::Labels label{{"backend", sw ? name : "hashchain"}};
      EXPECT_EQ(counter_value(service, "matchfinder_requests_total", label), sw ? 2u : 0u)
          << where;
      EXPECT_EQ(counter_value(service, "matchfinder_bytes_in_total", label), sw ? 2 * size : 0u)
          << where;
      EXPECT_EQ(counter_value(service, "matchfinder_probes_total", label),
                sw ? 2 * finder.probes : 0u)
          << where;
      EXPECT_EQ(counter_value(service, "matchfinder_compare_bytes_total", label),
                sw ? 2 * finder.compare_bytes : 0u)
          << where;
      if (sw) {
        EXPECT_GT(finder.probes, 0u) << where;
      }
    }
  }
}

TEST(ServerService, PingEchoesIdAndFlags) {
  Service service(small_config());
  LoopbackClient client(service);
  RequestFrame req;
  req.id = 0xABCDEF;
  req.opcode = Opcode::kPing;
  req.flags = 0x0042;
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 0xABCDEFu);
  EXPECT_EQ(resp.flags, 0x0042u);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, UnknownPresetAnswersUnsupported) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 4 * 1024);
  const auto resp =
      client.call(compress_request(1, data, flags_with_preset(0, /*preset_id=*/200)));
  EXPECT_EQ(resp.status, Status::kUnsupported);
}

// Selector 3 named the retired suffix-array backend; it must stay an error
// rather than fall through to a neighbouring backend.
TEST(ServerService, UnassignedMatchFinderSelectorsAnswerUnsupported) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 4 * 1024);
  for (const std::uint8_t selector : {3, 5, 6, 7}) {
    const auto resp = client.call(compress_request(1, data, flags_with_matchfinder(0, selector)));
    EXPECT_EQ(resp.status, Status::kUnsupported) << "selector " << int{selector};
  }
  const auto snap = service.metrics().snapshot();
  for (const char* backend : {"hashchain", "greedy"}) {
    const obs::Sample* s = snap.find("matchfinder_requests_total", backend);
    ASSERT_NE(s, nullptr) << backend;
    EXPECT_EQ(s->value, 0u) << backend;
  }
}

// Selector 0 takes the configured backend (greedy here); the others are
// MatchBackend values and pin their backend.
TEST(ServerService, MatchFinderSelectorsPickTheirBackends) {
  ServiceConfig cfg = small_config();
  cfg.match_backend = MatchBackend::kGreedy;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  ASSERT_EQ(static_cast<unsigned>(MatchBackend::kHw), 1u);
  ASSERT_EQ(static_cast<unsigned>(MatchBackend::kHashChain), 2u);
  ASSERT_EQ(static_cast<unsigned>(MatchBackend::kGreedy), 4u);
  const auto finder_requests = [&](const char* backend) {
    const auto snap = service.metrics().snapshot();
    const obs::Sample* s = snap.find("matchfinder_requests_total", backend);
    EXPECT_NE(s, nullptr) << backend;
    return s == nullptr ? std::uint64_t{0} : s->value;
  };
  // Each selector, with the finder counts after its request.
  const struct {
    std::uint8_t selector;
    std::uint64_t hashchain, greedy;
  } cases[] = {{2, 1, 0}, {4, 1, 1}, {kMatchFinderPolicy, 1, 2}, {1, 1, 2}};
  for (const auto& c : cases) {
    const auto resp =
        client.call(compress_request(1, data, flags_with_matchfinder(0, c.selector)));
    ASSERT_EQ(resp.status, Status::kOk) << int{c.selector};
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data) << int{c.selector};
    EXPECT_EQ(finder_requests("hashchain"), c.hashchain) << int{c.selector};
    EXPECT_EQ(finder_requests("greedy"), c.greedy) << int{c.selector};
    if (c.selector == 1) {
      EXPECT_EQ(resp.payload, hw_zlib_bytes(data));
    }
  }
}

TEST(ServerService, MatchBackendNamesRoundTrip) {
  for (const auto backend : {MatchBackend::kHw, MatchBackend::kHashChain, MatchBackend::kGreedy}) {
    MatchBackend parsed{};
    ASSERT_TRUE(parse_match_backend(match_backend_name(backend), parsed));
    EXPECT_EQ(parsed, backend);
  }
  MatchBackend unused = MatchBackend::kHw;
  for (const char* retired : {"suffixarray", "auto"}) {
    EXPECT_FALSE(parse_match_backend(retired, unused)) << retired;
    EXPECT_EQ(unused, MatchBackend::kHw) << retired;
  }
}

// The configured backend is a wire selector too: 0 defers to the service's
// backend and 3 and 5 are unassigned, so none of them may configure one.
TEST(ServerService, ConfigRejectsUnassignedBackends) {
  for (const unsigned value : {0u, 3u, 5u}) {
    ServiceConfig cfg = small_config();
    cfg.match_backend = static_cast<MatchBackend>(value);
    EXPECT_THROW(Service{cfg}, std::invalid_argument) << "match_backend " << value;
  }
}

TEST(ServerService, NamedPresetCompresses) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  // Preset 2 = "balanced" (standard_presets() order).
  const auto resp = client.call(compress_request(1, data, flags_with_preset(0, 2)));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
}

TEST(ServerService, CorruptPayloadAnswersCorrupt) {
  Service service(small_config());
  LoopbackClient client(service);
  RequestFrame req;
  req.id = 3;
  req.opcode = Opcode::kDecompress;
  req.payload = {0x00, 0x11, 0x22, 0x33, 0x44};
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, EmptyCompressRoundTrips) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto resp = client.call(compress_request(1, {}));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.adler, 1u);  // Adler-32 of empty input
  EXPECT_TRUE(deflate::zlib_decompress(resp.payload).empty());
}

TEST(ServerService, SaturatedQueueAnswersBusy) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 2;
  Service service(cfg);

  // Direct submit (bypassing loopback's one-outstanding-call-per-thread
  // limit): fire many sizable jobs at once; one worker + depth 2 must shed.
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  constexpr int kJobs = 12;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0, busy = 0, ok = 0;
  for (int i = 0; i < kJobs; ++i) {
    service.submit(compress_request(static_cast<std::uint64_t>(i), data),
                   [&](ResponseFrame&& resp) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ++completed;
                     if (resp.status == Status::kBusy) ++busy;
                     if (resp.status == Status::kOk) ++ok;
                     cv.notify_one();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kJobs; });
  }
  EXPECT_GT(busy, 0) << "bounded queue never shed load";
  EXPECT_GT(ok, 0) << "no request made it through";
  EXPECT_EQ(busy + ok, kJobs);

  const std::uint64_t requests =
      counter_value(service, "server_requests_total", {{"opcode", "compress"}});
  EXPECT_EQ(requests, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(compress_responses(service, "busy"), static_cast<std::uint64_t>(busy));
  EXPECT_EQ(compress_responses(service, "ok"), static_cast<std::uint64_t>(ok));
  // A BUSY answer is a reject, not an error — and it is counted exactly once.
  EXPECT_EQ(compress_responses(service, "error"), 0u);
  EXPECT_EQ(requests, compress_responses(service, "ok") + compress_responses(service, "busy") +
                          compress_responses(service, "error"));
}

TEST(ServerService, StatsCountersMatchIssuedRequests) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 8 * 1024);

  constexpr int kRequests = 5;
  std::size_t bytes_out = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto resp = client.call(compress_request(static_cast<std::uint64_t>(i), data));
    ASSERT_EQ(resp.status, Status::kOk);
    bytes_out += resp.payload.size();
  }
  (void)client.call([] {
    RequestFrame r;
    r.opcode = Opcode::kPing;
    return r;
  }());

  const obs::Labels compress = {{"opcode", "compress"}};
  EXPECT_EQ(counter_value(service, "server_requests_total", compress),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(compress_responses(service, "ok"), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(compress_responses(service, "busy"), 0u);
  EXPECT_EQ(compress_responses(service, "error"), 0u);
  EXPECT_EQ(counter_value(service, "server_bytes_in_total", compress),
            static_cast<std::uint64_t>(kRequests) * data.size());
  EXPECT_EQ(counter_value(service, "server_bytes_out_total", compress), bytes_out);
  EXPECT_EQ(counter_value(service, "server_requests_total", {{"opcode", "ping"}}), 1u);

  // The STATS opcode answers the same registry as machine-readable JSON,
  // {"metrics":[...]} and nothing else. The snapshot is taken before the
  // STATS request itself is counted, so compress still reads exactly 5.
  RequestFrame sreq;
  sreq.opcode = Opcode::kStats;
  const auto sresp = client.call(sreq);
  ASSERT_EQ(sresp.status, Status::kOk);
  const std::string text(sresp.payload.begin(), sresp.payload.end());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_EQ(text.back(), '}');
  EXPECT_EQ(text.find("\"service\":"), std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"server_responses_total\",\"labels\":{\"opcode\":"
                      "\"compress\",\"status\":\"ok\"},\"type\":\"counter\",\"value\":5}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"server_requests_total\",\"labels\":{\"opcode\":"
                      "\"ping\"},\"type\":\"counter\",\"value\":1}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"server_latency_us\",\"labels\":{\"opcode\":"
                      "\"compress\"},\"type\":\"histogram\",\"count\":5,"),
            std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"server_queue_high_water\","), std::string::npos);
}

TEST(ServerService, DeadlineExceededCountsAsErrorExactlyOnce) {
  // Queue entries that blow their deadline answer DEADLINE_EXCEEDED via the
  // same finish() path as everything else: each request lands in exactly one
  // of ok/busy/errors, and the buckets sum back to requests.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 16;
  cfg.request_timeout_ms = 1;
  Service service(cfg);

  const auto data = wl::make_corpus("wiki", 64 * 1024);
  constexpr int kJobs = 10;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0, ok = 0, busy = 0, errors = 0;
  for (int i = 0; i < kJobs; ++i) {
    service.submit(compress_request(static_cast<std::uint64_t>(i), data),
                   [&](ResponseFrame&& resp) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ++completed;
                     if (resp.status == Status::kOk) ++ok;
                     else if (resp.status == Status::kBusy) ++busy;
                     else ++errors;
                     cv.notify_one();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kJobs; });
  }
  EXPECT_GT(errors, 0) << "1 ms deadline never expired a queued 64 KiB job";

  const std::uint64_t requests =
      counter_value(service, "server_requests_total", {{"opcode", "compress"}});
  EXPECT_EQ(requests, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(compress_responses(service, "ok"), static_cast<std::uint64_t>(ok));
  EXPECT_EQ(compress_responses(service, "busy"), static_cast<std::uint64_t>(busy));
  EXPECT_EQ(compress_responses(service, "error"), static_cast<std::uint64_t>(errors));
  EXPECT_EQ(requests, compress_responses(service, "ok") + compress_responses(service, "busy") +
                          compress_responses(service, "error"));
  EXPECT_GE(counter_value(service, "server_deadline_exceeded_total"),
            static_cast<std::uint64_t>(errors));
}

TEST(ServerRetry, SleepAccountingSharesTheRngDraw) {
  // RetryStats::slept_ms must equal the milliseconds the backoff actually
  // slept. A replica Backoff with the same seed predicts the exact stream;
  // a second independent draw inside sleep() would desync them.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 2;
  policy.max_delay_ms = 8;
  Backoff replica(policy);
  std::uint64_t expected = 0;
  for (unsigned a = 0; a + 1 < policy.max_attempts; ++a) expected += replica.delay_ms(a);

  RetryStats stats;
  unsigned calls = 0;
  RequestFrame req;
  req.opcode = Opcode::kPing;
  const auto resp = call_with_retry(
      [&](const RequestFrame&) {
        ++calls;
        ResponseFrame r;
        r.status = Status::kBusy;
        return r;
      },
      req, policy, &stats);
  EXPECT_EQ(resp.status, Status::kBusy);  // exhausted, last answer returned
  EXPECT_EQ(calls, policy.max_attempts);
  EXPECT_EQ(stats.attempts, policy.max_attempts);
  EXPECT_EQ(stats.retries, policy.max_attempts - 1);
  EXPECT_EQ(stats.slept_ms, expected);
}

TEST(ServerService, LatencyPercentilesPopulateAfterTraffic) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(client.call(compress_request(static_cast<std::uint64_t>(i), data)).status,
              Status::kOk);
  }
  const auto latency =
      service.metrics().histogram("server_latency_us", {{"opcode", "compress"}}).merged();
  EXPECT_GT(latency.quantile(0.99), 0u);
  EXPECT_LE(latency.quantile(0.50), latency.quantile(0.99));
}

TEST(ServerService, ConcurrentLoopbackClientsAllRoundTrip) {
  Service service(small_config());
  const auto data = wl::make_corpus("mixed", 8 * 1024);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(service);
      for (int i = 0; i < 4; ++i) {
        const auto resp = client.call(
            compress_request(static_cast<std::uint64_t>(t * 100 + i), data,
                             (i % 2) != 0 ? kFlagRawContainer : std::uint16_t{0}));
        if (resp.status == Status::kBusy) continue;  // legal under contention
        if (resp.status != Status::kOk || resp.adler != checksum::adler32(data)) {
          failures.fetch_add(1);
          continue;
        }
        const auto out = (i % 2) != 0 ? core::raw_container_unpack(resp.payload)
                                      : deflate::zlib_decompress(resp.payload);
        if (out != data) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

RequestFrame blocked_request(std::uint64_t id, std::vector<std::uint8_t> data,
                             std::uint16_t flags = 0) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kCompressBlocked;
  req.flags = flags;
  req.payload = std::move(data);
  return req;
}

RequestFrame decompress_request(std::uint64_t id, std::vector<std::uint8_t> payload) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kDecompress;
  req.payload = std::move(payload);
  return req;
}

TEST(ServerContainer, BlockedCompressRoundTripsThroughDecompress) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("mixed", 200 * 1024);

  const auto packed = client.call(blocked_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(packed.adler, checksum::adler32(data));
  const auto view = container::parse(packed.payload, data.size());
  EXPECT_EQ(view.raw_total, data.size());
  EXPECT_EQ(view.blocks.size(), container::block_count_for(data.size(), 32 * 1024));

  // Plain DECOMPRESS sniffs the LZBC magic and inverts it in parallel.
  const auto restored = client.call(decompress_request(2, packed.payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_EQ(restored.payload, data);
  EXPECT_EQ(restored.adler, checksum::adler32(data));
}

TEST(ServerContainer, BlockedCompressWithPresetRoundTrips) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);

  // Preset 2 = "balanced": workers can't reuse their default-config engine,
  // so this first request (a census sample) runs every block on an ad-hoc
  // model for the preset's geometry.
  const auto packed = client.call(blocked_request(1, data, flags_with_preset(0, 2)));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(container::block_decompress(packed.payload, data.size()), data);
}

TEST(ServerContainer, LargeRequestOccupiesMultipleWorkers) {
  // The acceptance proof for the fan-out path: one 8 MiB COMPRESS_BLOCKED
  // request, four workers. A short armed delay keeps the parent out of the
  // claim pool at the start, so helper workers demonstrably carry blocks
  // (container_helper_blocks_total > 0) — the request cannot have run on a
  // single worker.
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_depth = 32;
  cfg.block_bytes = 256 * 1024;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);

  fault::Spec delay;
  delay.action = fault::Action::kDelay;
  delay.delay_ms = 50;
  delay.max_triggers = 1;
  const auto data = wl::make_corpus("x2e", 8 * 1024 * 1024);
  std::optional<ResponseFrame> packed;
  {
    fault::ScopedFault guard("container.reassemble.delay", delay);
    packed = client.call(blocked_request(1, data));
  }
  ASSERT_EQ(packed->status, Status::kOk);
  EXPECT_GT(registry.counter("container_helper_blocks_total").value(), 0u);
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "compress"}}).value(),
            container::block_count_for(data.size(), cfg.block_bytes));

  const auto restored = client.call(decompress_request(2, packed->payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_EQ(restored.payload, data);
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "decompress"}}).value(),
            container::block_count_for(data.size(), cfg.block_bytes));
}

TEST(ServerContainer, CorruptedBlockAnswersCorruptNeverPartial) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 128 * 1024);

  const auto packed = client.call(blocked_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);

  // Flip one bit inside the last block's payload: every earlier block still
  // decodes, but the response must be a typed CORRUPT with no payload.
  auto mangled = packed.payload;
  mangled.back() ^= 0x01;
  const auto resp = client.call(decompress_request(2, std::move(mangled)));
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, ServerSideDecodeFailureAnswersInternal) {
  // A throw out of the block fan-out while a valid container decodes is the
  // server's failure, not damage in what the client sent: INTERNAL, never
  // CORRUPT, and never a partial payload.
  ServiceConfig cfg = small_config();
  cfg.workers = 3;
  cfg.block_bytes = 16 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 128 * 1024);
  const auto packed = client.call(blocked_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);
  {
    fault::Spec boom;
    boom.action = fault::Action::kThrow;
    const fault::ScopedFault guard("container.reassemble.delay", boom);
    const auto resp = client.call(decompress_request(2, packed.payload));
    EXPECT_EQ(resp.status, Status::kInternal);
    EXPECT_TRUE(resp.payload.empty());
  }
  const auto resp = client.call(decompress_request(3, packed.payload));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.payload, data);
}

TEST(ServerContainer, RawTotalBeyondPayloadCapAnswersTooLarge) {
  // A tiny container whose header promises more raw bytes than the service
  // cap: the superframe bomb guard answers TOO_LARGE before any block work.
  ServiceConfig cfg = small_config();
  cfg.max_payload = 1024 * 1024;
  Service service(cfg);
  LoopbackClient client(service);

  std::vector<std::uint8_t> bomb;
  const std::uint32_t block_size = 1024 * 1024;
  const std::uint64_t raw_total = static_cast<std::uint64_t>(cfg.max_payload) + 1;
  container::append_superframe_header(
      bomb, block_size, static_cast<std::uint32_t>(container::block_count_for(raw_total, block_size)),
      raw_total);
  const auto resp = client.call(decompress_request(1, std::move(bomb)));
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, HostileBlockCountAnswersCorrupt) {
  // A bare header that claims one block per byte of the full payload cap:
  // parse answers from the bytes present instead of reserving 64 Mi records.
  Service service(small_config());
  LoopbackClient client(service);
  std::vector<std::uint8_t> header;
  container::append_superframe_header(header, 1, static_cast<std::uint32_t>(kMaxPayload),
                                      kMaxPayload);
  const auto resp = client.call(decompress_request(1, std::move(header)));
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, RawFlagOnBlockedCompressAnswersBadRequest) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto resp =
      client.call(blocked_request(1, wl::make_corpus("wiki", 4 * 1024), kFlagRawContainer));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, EmptyBlockedCompressRoundTrips) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto packed = client.call(blocked_request(1, {}));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(packed.payload.size(), container::kSuperframeHeaderSize);
  const auto restored = client.call(decompress_request(2, packed.payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_TRUE(restored.payload.empty());
  EXPECT_EQ(restored.adler, 1u);  // Adler-32 of empty output
}

// ------------------------------------------- blocked path pinned to codec --
//
// COMPRESS_BLOCKED and blocked DECOMPRESS are the codec's block driver run
// on the service's workers: these pin the bytes, the block metrics and the
// error statuses the service adds around it.

/// The HwConfig the service resolves for a blocked request: the preset (or
/// the service default) with the dictionary clamped to Deflate's window.
hw::HwConfig blocked_hw(std::uint8_t preset_id = 0) {
  hw::HwConfig cfg = preset_id == 0 ? ServiceConfig{}.hw
                                    : est::standard_presets()[preset_id - 1].config;
  cfg.dict_bits = std::min(cfg.dict_bits, 15u);
  return cfg;
}

std::vector<std::uint8_t> codec_bytes(std::span<const std::uint8_t> data,
                                      std::size_t block_bytes, const hw::HwConfig& hw) {
  container::BlockCodecConfig codec;
  codec.block_bytes = block_bytes;
  codec.tokens = hw;
  return container::block_compress(data, codec);
}

std::int64_t waiters(obs::Registry& registry) {
  return registry.gauge("container_reassembly_waiters").value();
}

TEST(ServerContainer, BlockedBytesEqualCodecBytes) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);
  // 100 KiB + 123 bytes: three full blocks and a short last one.
  const auto data = wl::make_corpus("mixed", 100 * 1024 + 123);
  const auto expected = codec_bytes(data, cfg.block_bytes, blocked_hw());

  // The first hw request is the census sample (a model per block), the
  // second runs the functional twin: both give the codec's bytes.
  for (std::uint64_t id : {1u, 2u}) {
    const auto resp = client.call(blocked_request(id, data));
    ASSERT_EQ(resp.status, Status::kOk) << id;
    EXPECT_EQ(resp.payload, expected) << id;
    EXPECT_EQ(resp.adler, checksum::adler32(data)) << id;
    EXPECT_EQ(waiters(registry), 0) << id;
  }
  const auto preset = client.call(blocked_request(3, data, flags_with_preset(0, 2)));
  ASSERT_EQ(preset.status, Status::kOk);
  EXPECT_EQ(preset.payload, codec_bytes(data, cfg.block_bytes, blocked_hw(2)));
  EXPECT_EQ(waiters(registry), 0);
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "compress"}}).value(), 3u * 4u);
}

TEST(ServerContainer, IncompressibleBlocksCountAsBlockFallbacks) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 16 * 1024;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("random", 40 * 1024);

  const auto resp = client.call(blocked_request(1, data));
  ASSERT_EQ(resp.status, Status::kOk);
  const auto view = container::parse(resp.payload, data.size());
  std::uint64_t stored = 0;
  for (const auto& b : view.blocks) stored += b.method == container::Method::kStored ? 1 : 0;
  EXPECT_EQ(stored, view.blocks.size());
  EXPECT_EQ(registry.counter("container_block_fallbacks_total").value(), stored);
  EXPECT_EQ(waiters(registry), 0);
}

TEST(ServerContainer, SampledBlockedRequestExportsOneCensusPerBlock) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 80 * 1024);

  // One model run per block: the census totals are the per-block sums.
  std::uint64_t cycles = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += cfg.block_bytes) {
    const std::size_t len = std::min<std::size_t>(cfg.block_bytes, data.size() - begin);
    hw::Compressor model(blocked_hw());
    cycles += model.compress(std::span(data).subspan(begin, len)).stats.total_cycles;
  }
  ASSERT_EQ(client.call(blocked_request(1, data)).status, Status::kOk);
  EXPECT_EQ(registry.counter("hw_cycles_total").value(), cycles);
  EXPECT_EQ(registry.counter("hw_bytes_in_total").value(), data.size());
  // The next request runs the twin: no census.
  ASSERT_EQ(client.call(blocked_request(2, data)).status, Status::kOk);
  EXPECT_EQ(registry.counter("hw_cycles_total").value(), cycles);
  EXPECT_EQ(waiters(registry), 0);
}

TEST(ServerContainer, BlockInflatingPastRawLenAnswersCorrupt) {
  // A well-formed record whose Deflate stream inflates to 4 KiB while its
  // header claims 16 raw bytes: the per-block bomb guard refuses it, and the
  // service answers CORRUPT, not TOO_LARGE.
  obs::Registry registry;
  ServiceConfig cfg = small_config();
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);
  const std::vector<std::uint8_t> zeros(4096, 0);
  const auto stream = deflate::deflate_fixed(hw::compress_tokens(blocked_hw(), zeros));
  const std::uint32_t raw_len = 16;
  std::vector<std::uint8_t> bomb;
  container::append_superframe_header(bomb, raw_len, 1, raw_len);
  container::append_block_header(bomb, container::Method::kDeflate,
                                 checksum::crc32(std::span(zeros).first(raw_len)), raw_len,
                                 static_cast<std::uint32_t>(stream.size()));
  bomb.insert(bomb.end(), stream.begin(), stream.end());

  const auto resp = client.call(decompress_request(1, std::move(bomb)));
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
  EXPECT_EQ(waiters(registry), 0);
}

/// An LZS1 container whose 16-bit commands each copy 258 bytes: a literal,
/// then @p runs runs, declaring @p original_size.
std::vector<std::uint8_t> raw_runs(std::size_t runs, std::uint64_t original_size) {
  std::vector<core::Token> tokens{core::Token::literal('a')};
  tokens.insert(tokens.end(), runs, core::Token::match(1, 258));
  return core::raw_container_pack(tokens, 8, original_size);
}

TEST(ServerService, RawDecompressPastDeclaredSizeAnswersCorrupt) {
  // 4096 runs (8 KiB of commands, 1 MiB of output) behind a declared size
  // of one byte: refused at the first run, within the cap, so CORRUPT.
  ServiceConfig cfg = small_config();
  cfg.max_payload = 1024 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  RequestFrame req = decompress_request(1, raw_runs(4096, 1));
  req.flags = kFlagRawContainer;
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());

  req.opcode = Opcode::kVerify;  // container-mode VERIFY maps it as damage
  const auto verdict = client.call(req);
  ASSERT_EQ(verdict.status, Status::kOk);
  const std::string json(verdict.payload.begin(), verdict.payload.end());
  EXPECT_NE(json.find("\"corrupt\":1"), std::string::npos) << json;
}

TEST(ServerService, RawTokenCountPastThePayloadAnswersCorrupt) {
  // A 23-byte LZS1 container (window 8, one literal) declaring 2^60 + 1
  // tokens, whose bit total wraps to the payload's 16 bits: CORRUPT.
  auto c = core::raw_container_pack(std::vector<core::Token>{core::Token::literal('x')}, 8, 1);
  const std::uint64_t count = (std::uint64_t{1} << 60) + 1;
  for (int i = 0; i < 8; ++i) c[13 + i] = static_cast<std::uint8_t>(count >> (8 * i));
  Service service(small_config());
  LoopbackClient client(service);
  RequestFrame req = decompress_request(1, std::move(c));
  req.flags = kFlagRawContainer;
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, RawDecompressDeclaringMoreThanTheCapAnswersTooLarge) {
  ServiceConfig cfg = small_config();
  cfg.max_payload = 1024 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  RequestFrame req = decompress_request(1, raw_runs(4096, 1 + 4096 * 258));
  req.flags = kFlagRawContainer;
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(resp.payload.empty());

  req.opcode = Opcode::kVerify;
  EXPECT_EQ(client.call(req).status, Status::kTooLarge);

  // The same commands declaring their true size fit a 2 MiB service.
  cfg.max_payload = 2 * 1024 * 1024;
  Service roomy(cfg);
  LoopbackClient roomy_client(roomy);
  req.opcode = Opcode::kDecompress;
  const auto ok = roomy_client.call(req);
  ASSERT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(ok.payload.size(), 1u + 4096 * 258);
}

TEST(ServerService, PlainDecompressBombAnswersTooLarge) {
  // A valid zlib stream that inflates past the small service's cap must be
  // refused with the typed TOO_LARGE, not inflated into memory.
  Service big(small_config());
  LoopbackClient big_client(big);
  const auto data = wl::make_corpus("zeros", 2 * 1024 * 1024);
  const auto packed = big_client.call(compress_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);
  ASSERT_LT(packed.payload.size(), 1024u * 1024);

  ServiceConfig capped = small_config();
  capped.max_payload = 1024 * 1024;
  Service small(capped);
  LoopbackClient small_client(small);
  const auto resp = small_client.call(decompress_request(2, packed.payload));
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerSession, PoisonedSessionEmitsExactlyOneErrorAndIgnoresFurtherBytes) {
  int handled = 0;
  Session session(1, [&](RequestFrame&&) { ++handled; });

  // Garbage that cannot be a frame: bad magic poisons the parser.
  const std::vector<std::uint8_t> junk{'X', 'X', 'X', 'X', 0, 0, 0, 0};
  session.on_bytes(junk);
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(handled, 0);

  // Exactly one typed error response sits in the outbox.
  ResponseParser parser;
  parser.feed(session.take_outgoing());
  const auto err = parser.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kBadRequest);
  EXPECT_FALSE(parser.next().has_value());

  // Further frames — even perfectly valid ones — are dropped, not parsed,
  // and produce no second response.
  RequestFrame valid;
  valid.opcode = Opcode::kPing;
  session.on_bytes(encode_request(valid));
  session.on_bytes(junk);
  EXPECT_EQ(handled, 0);
  EXPECT_FALSE(session.has_outgoing());
  EXPECT_EQ(session.requests_seen(), 0u);
}

TEST(ServerTcp, PoisonedConnectionGetsOneErrorThenClose) {
  Service service(small_config());
  TcpServer server(service, /*port=*/0);
  std::thread server_thread([&] { server.run(); });

  {
    // A protocol-violating client: valid request first (proves the session
    // works), then garbage. The front end must flush exactly one
    // BAD_REQUEST response and close the connection.
    TcpClient client("127.0.0.1", server.port());
    RequestFrame ping;
    ping.id = 9;
    ping.opcode = Opcode::kPing;
    EXPECT_EQ(client.call(ping).status, Status::kOk);
  }

  // Raw-socket phase: TcpClient only speaks the protocol, so drive the
  // poisoning bytes by hand.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  const std::uint8_t junk[8] = {'n', 'o', 'p', 'e', 1, 2, 3, 4};
  ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));

  // Read until EOF: everything the server sends before closing the fd.
  std::vector<std::uint8_t> received;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // 0 = server closed the connection, as required
    received.insert(received.end(), buf, buf + n);
  }
  ::close(fd);

  ResponseParser parser;
  parser.feed(received);
  const auto err = parser.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kBadRequest);
  EXPECT_FALSE(parser.next().has_value());  // exactly one frame, then close

  server.stop();
  server_thread.join();
}

TEST(ServerTcp, EndToEndOverRealSockets) {
  Service service(small_config());
  TcpServer server(service, /*port=*/0);
  std::thread server_thread([&] { server.run(); });

  const auto data = wl::make_corpus("wiki", 16 * 1024);
  {
    TcpClient client("127.0.0.1", server.port());

    RequestFrame ping;
    ping.id = 1;
    ping.opcode = Opcode::kPing;
    EXPECT_EQ(client.call(ping).status, Status::kOk);

    const auto resp = client.call(compress_request(2, data));
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.adler, checksum::adler32(data));
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);

    // Two sequential requests on one connection (framing keeps sync).
    const auto resp2 = client.call(compress_request(3, data, kFlagRawContainer));
    ASSERT_EQ(resp2.status, Status::kOk);
    EXPECT_EQ(core::raw_container_unpack(resp2.payload), data);
  }
  EXPECT_GE(server.connections_accepted(), 1u);

  server.stop();
  server_thread.join();
}

// --- Request-scoped tracing --------------------------------------------------

TEST(ServerServiceTrace, ClientTraceIdIsEchoedAndTreeRecorded) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;  // only client-forced traces
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(5, wl::make_corpus("wiki", 8 * 1024));
  req.flags |= kFlagTraced;
  req.trace_id = 0x5EED5EED5EED5EEDull;
  const auto resp = client.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, req.trace_id);

  const auto tree = ring.events_for(req.trace_id);
  ASSERT_GE(tree.size(), 2u);  // at least opcode span + request root
  // Exactly one root, and every non-root parents onto a span in the tree.
  std::size_t roots = 0;
  for (const auto& e : tree) {
    if (e.parent_id == 0) {
      ++roots;
      EXPECT_STREQ(e.name, "request.compress");
      EXPECT_STREQ(e.tag, "OK");
    } else {
      bool found = false;
      for (const auto& p : tree) found = found || p.span_id == e.parent_id;
      EXPECT_TRUE(found) << e.name;
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ServerServiceTrace, SamplingAssignsIdsWithoutClientOptIn) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 1;  // trace everything
  Service service(cfg);
  LoopbackClient client(service);

  const auto resp = client.call(compress_request(1, wl::make_corpus("wiki", 4096)));
  ASSERT_EQ(resp.status, Status::kOk);
  // The wire response carries no trace extension (the client never set
  // kFlagTraced, and old clients must see byte-identical responses) ...
  EXPECT_EQ(resp.trace_id, 0u);
  // ... but the server still recorded a full tree under a self-assigned id.
  std::uint64_t sampled_id = 0;
  for (const auto& e : ring.events()) {
    if (e.parent_id == 0 && std::string_view(e.name) == "request.compress")
      sampled_id = e.trace_id;
  }
  ASSERT_NE(sampled_id, 0u);
  EXPECT_GE(ring.events_for(sampled_id).size(), 2u);
}

TEST(ServerServiceTrace, UnsampledRequestsStayUntraced) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  Service service(cfg);
  LoopbackClient client(service);
  const auto resp = client.call(compress_request(1, wl::make_corpus("wiki", 4096)));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, 0u);
  // Spans still record (flat), but no request root exists.
  for (const auto& e : ring.events()) EXPECT_EQ(e.trace_id, 0u);
}

TEST(ServerServiceTrace, BlockFanoutYieldsFourDeepTree) {
  obs::TraceRing ring(4096);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  cfg.block_bytes = 16 * 1024;  // several blocks from a small corpus
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req;
  req.id = 9;
  req.opcode = Opcode::kCompressBlocked;
  req.flags = kFlagTraced;
  req.trace_id = 0xB10CB10CB10CB10Cull;
  req.payload = wl::make_corpus("mixed", 64 * 1024);
  const auto resp = client.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, req.trace_id);

  // Walk the tree: engine.encode -> container_block -> compress_blocked ->
  // request.compress_blocked must chain to depth >= 4.
  const auto tree = ring.events_for(req.trace_id);
  std::size_t max_depth = 0;
  for (const auto& e : tree) {
    std::size_t depth = 1;
    std::uint64_t parent = e.parent_id;
    while (parent != 0) {
      for (const auto& p : tree) {
        if (p.span_id == parent) {
          parent = p.parent_id;
          ++depth;
          goto next_hop;
        }
      }
      break;  // parent not in ring (overwritten) — stop counting
    next_hop:;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_GE(max_depth, 4u) << tree.size() << " spans in tree";
  bool saw_block = false, saw_engine = false;
  for (const auto& e : tree) {
    saw_block = saw_block || std::string_view(e.name) == "container_block";
    saw_engine = saw_engine || std::string_view(e.name) == "engine.encode";
  }
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_engine);
}

TEST(ServerServiceTrace, SlowRequestsAreCopiedToKeepRing) {
  obs::TraceRing ring(1024);
  obs::TraceRing slow(64);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  cfg.slow_trace = &slow;
  cfg.slow_trace_us = 1;  // every traced request is "slow"
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(3, wl::make_corpus("wiki", 8 * 1024));
  req.flags |= kFlagTraced;
  req.trace_id = 0x510051005100510Full;
  ASSERT_EQ(client.call(req).status, Status::kOk);

  const auto kept = slow.events_for(req.trace_id);
  ASSERT_GE(kept.size(), 2u);
  // The keep-ring copy includes the request root (recorded before the copy).
  bool has_root = false;
  for (const auto& e : kept) has_root = has_root || e.parent_id == 0;
  EXPECT_TRUE(has_root);

  // Fast path untouched: a threshold of 0 disables the flight recorder.
  obs::TraceRing slow2(64);
  ServiceConfig cfg2 = small_config();
  cfg2.trace = &ring;
  cfg2.trace_sample = 0;
  cfg2.slow_trace = &slow2;
  cfg2.slow_trace_us = 0;
  Service service2(cfg2);
  LoopbackClient client2(service2);
  RequestFrame req2 = compress_request(4, wl::make_corpus("wiki", 4096));
  req2.flags |= kFlagTraced;
  req2.trace_id = 0xAAAA5555AAAA5555ull;
  ASSERT_EQ(client2.call(req2).status, Status::kOk);
  EXPECT_TRUE(slow2.events().empty());
}

TEST(ServerServiceTrace, TracedRequestSetsHistogramExemplar) {
  obs::Registry registry;
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.registry = &registry;
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(8, wl::make_corpus("wiki", 4096));
  req.flags |= kFlagTraced;
  req.trace_id = 0xE7E7E7E7E7E7E7E7ull;
  ASSERT_EQ(client.call(req).status, Status::kOk);

  const auto snap = registry.snapshot();
  const obs::Sample* s = snap.find("server_latency_us", "compress");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exemplar_trace_id, req.trace_id);
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# {trace_id=\"e7e7e7e7e7e7e7e7\"}"), std::string::npos);
}

// ----------------------------------------- functional twin, census samples --

std::uint64_t census_cycles(const Service& service) {
  const auto snap = service.metrics().snapshot();
  const obs::Sample* s = snap.find("hw_cycles_total");
  return s == nullptr ? 0 : s->value;
}

TEST(ServerService, RatioPresetCompressRoundTrips) {
  // Preset 3 ("ratio") has a 64 KiB dictionary; zlib can only carry 32 KiB
  // distances, so the service clamps the dictionary for zlib responses.
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);
  for (int i = 0; i < 2; ++i) {  // the census sample, then the twin
    const auto resp = client.call(compress_request(1, data, flags_with_preset(0, 3)));
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_LT(resp.payload.size(), data.size() / 2);
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
  }
}

TEST(ServerService, RatioPresetCompressBlockedRoundTrips) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);
  for (int i = 0; i < 2; ++i) {
    const auto packed = client.call(blocked_request(1, data, flags_with_preset(0, 3)));
    ASSERT_EQ(packed.status, Status::kOk);
    const auto view = container::parse(packed.payload, data.size());
    for (const auto& b : view.blocks) EXPECT_EQ(b.method, container::Method::kDeflate);
    EXPECT_EQ(container::block_decompress(packed.payload, data.size()), data);
  }
}

TEST(ServerService, RatioPresetRawContainerKeepsTheFullDictionary) {
  // LZS1 carries its own distance width: the 64 KiB dictionary stays.
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);
  const auto resp =
      client.call(compress_request(1, data, flags_with_preset(kFlagRawContainer, 3)));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(core::raw_container_unpack(resp.payload), data);
}

TEST(ServerService, FirstHwCompressExportsTheCensus) {
  Service service(small_config());
  LoopbackClient client(service);
  EXPECT_EQ(census_cycles(service), 0u);
  ASSERT_EQ(client.call(compress_request(1, wl::make_corpus("wiki", 8 * 1024))).status,
            Status::kOk);
  EXPECT_GT(census_cycles(service), 0u);
}

TEST(ServerService, CensusSamplesOneHwRequestIn64) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("x2e", 2 * 1024);
  std::vector<std::size_t> exported;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < 65; ++i) {
    // COMPRESS and COMPRESS_BLOCKED share one sample counter; a request
    // pinned to a software backend is not an hw request and does not count.
    const auto req = i % 2 == 0 ? compress_request(i, data) : blocked_request(i, data);
    ASSERT_EQ(client.call(req).status, Status::kOk);
    ASSERT_EQ(client.call(compress_request(i, data, flags_with_matchfinder(0, 2))).status,
              Status::kOk);
    const std::uint64_t now = census_cycles(service);
    if (now != before) exported.push_back(i);
    before = now;
  }
  EXPECT_EQ(exported, (std::vector<std::size_t>{0, 64}));
  const auto snap = service.metrics().snapshot();
  ASSERT_NE(snap.find("hw_bytes_in_total"), nullptr);
  EXPECT_EQ(snap.find("hw_bytes_in_total")->value, 2 * data.size());
}

TEST(ServerService, SampledMultiPartCompressRunsTheModelPerPart) {
  ServiceConfig cfg = small_config();
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);  // fresh: its first hw request is the census sample
  LoopbackClient client(service);
  // Six parts of 16 KiB, the last one short; each run preloads the 4 KiB
  // dictionary before its part.
  const auto data = wl::make_corpus("x2e", 84 * 1024);
  const hw::HwConfig hw = ServiceConfig{}.hw;
  std::uint64_t cycles = 0;
  std::uint64_t preloaded = 0;
  const auto expected = hw_part_bytes(
      data, container::kPartBytes, 12, [&](std::span<const std::uint8_t> window, std::size_t prefix) {
        const std::size_t preload = std::min<std::size_t>(prefix, hw.dict_size());
        hw::Compressor model(hw);
        auto result = model.compress(window.subspan(prefix - preload), preload);
        cycles += result.stats.total_cycles;
        preloaded += result.stats.preloaded;
        return std::move(result.tokens);
      });
  EXPECT_EQ(preloaded, 5 * hw.dict_size());

  const auto resp = client.call(compress_request(1, data));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.payload, expected);
  EXPECT_GT(cycles, 0u);
  EXPECT_EQ(registry.counter("hw_cycles_total").value(), cycles);
  EXPECT_EQ(registry.counter("hw_bytes_in_total").value(), data.size());
  EXPECT_EQ(waiters(registry), 0);
}

TEST(ServerService, RatioPresetCompressOf96KiBFansOut) {
  // Preset 3's dictionary is 32 KiB after the zlib clamp. Primed parts need
  // no larger part size: 96 KiB is six 16 KiB parts on the fan-out, within
  // 0.5% of the one-stream size.
  ServiceConfig cfg = small_config();
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);
  const hw::HwConfig hw = blocked_hw(3);
  ASSERT_EQ(hw.dict_bits, 15u);
  const auto expected =
      hw_part_bytes(data, container::kPartBytes, 15,
                    [&](std::span<const std::uint8_t> window, std::size_t prefix) {
                      return hw::compress_tokens(hw, window, nullptr, prefix);
                    });
  const auto one_stream = deflate::zlib_wrap(
      deflate::deflate_fixed(hw::compress_tokens(hw, data)), checksum::adler32(data), 15);
  EXPECT_LE(static_cast<double>(expected.size()), 1.005 * static_cast<double>(one_stream.size()));
  for (std::uint64_t id : {1u, 2u}) {  // the census sample, then the twin
    const auto resp = client.call(compress_request(id, data, flags_with_preset(0, 3)));
    ASSERT_EQ(resp.status, Status::kOk) << id;
    EXPECT_EQ(resp.payload, expected) << id;
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data) << id;
  }
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "compress"}}).value(), 2u * 6);
}

TEST(ServerService, DefaultWorkersFollowTheHost) {
  EXPECT_EQ(ServiceConfig{}.workers, std::max(2u, std::thread::hardware_concurrency()));
  EXPECT_EQ(ServiceConfig{}.workers, default_workers());
}

TEST(ServerService, CompressBytesDoNotDependOnTheWorkerCount) {
  // The part size is a constant, so the pool's width moves only where the
  // parts run: 1, 2, 4 and 7 workers, and the codec's local runner, give
  // the same bytes on every backend, for the census sample and the twin
  // alike.
  const auto wiki = wl::make_corpus("wiki", 1024 * 1024, 9);
  for (const MatchBackend backend : kAllBackends) {
    for (const std::uint8_t preset : {std::uint8_t{1}, std::uint8_t{3}}) {
      const hw::HwConfig hw = blocked_hw(preset);
      for (const std::size_t size : {std::size_t{64} * 1024, wiki.size()}) {
        const std::vector<std::uint8_t> data(wiki.begin(),
                                             wiki.begin() + static_cast<std::ptrdiff_t>(size));
        auto parts = container::deflate_in_parts(*match_source(backend, hw), data, {}, nullptr);
        const auto expected = deflate::zlib_wrap_in_place(std::move(parts.bytes), parts.adler,
                                                          hw.dict_bits);
        ASSERT_EQ(deflate::zlib_decompress(expected), data);
        for (const unsigned workers : {1u, 2u, 4u, 7u}) {
          ServiceConfig cfg = small_config();
          cfg.workers = workers;
          Service service(cfg);  // fresh: its first hw request is the census sample
          LoopbackClient client(service);
          for (std::uint64_t id : {1u, 2u}) {
            const auto resp = client.call(
                compress_request(id, data, pinned(backend, flags_with_preset(0, preset))));
            ASSERT_EQ(resp.status, Status::kOk);
            EXPECT_EQ(resp.payload, expected)
                << match_backend_name(backend) << " preset " << int{preset} << " size " << size
                << " workers " << workers << " request " << id;
            EXPECT_EQ(resp.adler, checksum::adler32(data));
          }
        }
      }
    }
  }
}

TEST(ServerService, CensusSampleAndTwinResponsesAreByteIdentical) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  const auto small = wl::make_corpus("wiki", 24 * 1024);
  const auto large = wl::make_corpus("mixed", 160 * 1024);
  const std::pair<const char*, RequestFrame> cases[] = {
      {"small", compress_request(1, small)},
      {"large", compress_request(2, large)},
      {"raw", compress_request(3, small, kFlagRawContainer)},
      {"preset", compress_request(4, small, flags_with_preset(0, 2))},
      {"blocked", blocked_request(5, large)},
  };
  for (const auto& [name, req] : cases) {
    Service service(cfg);  // fresh: its first hw request is the census sample
    LoopbackClient client(service);
    const auto sampled = client.call(req);
    const std::uint64_t census = census_cycles(service);
    const auto twin = client.call(req);
    ASSERT_EQ(sampled.status, Status::kOk) << name;
    ASSERT_EQ(twin.status, Status::kOk) << name;
    EXPECT_GT(census, 0u) << name;
    EXPECT_EQ(census_cycles(service), census) << name << ": the second request ran the model";
    EXPECT_EQ(twin.payload, sampled.payload) << name;
  }
}

}  // namespace
}  // namespace lzss::server
