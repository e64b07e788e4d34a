#include "ledger.hpp"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <utility>

#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/sw_encoder.hpp"

namespace perfbench {

namespace {

namespace srv = lzss::server;

/// Runs @p f and records a span around it. @p bytes may be fixed up by the
/// caller afterwards (spans.back()) when the count is only known then.
template <typename F>
auto timed(std::vector<Span>& spans, Layer layer, bool top_level, std::uint64_t bytes, F&& f) {
  const std::uint64_t t0 = thread_cpu_ns();
  auto result = f();
  const std::uint64_t t1 = thread_cpu_ns();
  spans.push_back(Span{layer, top_level, t1 - t0, bytes});
  return result;
}

std::uint64_t get_le64(std::span<const std::uint8_t> p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[static_cast<std::size_t>(i)];
  return v;
}

/// MB/s from bytes and nanoseconds (10^6 bytes per second).
double mb_per_s(std::uint64_t bytes, std::uint64_t ns) noexcept {
  return ns == 0 ? 0.0 : static_cast<double>(bytes) * 1e3 / static_cast<double>(ns);
}

}  // namespace

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Minima::add(const Replay& replay, std::uint64_t tcp) {
  std::array<std::uint64_t, kLayerCount> top{};
  for (const Span& s : replay.spans)
    if (s.top_level) top[static_cast<std::size_t>(s.layer)] += s.ns;
  tcp_ns = std::min(tcp_ns, tcp);
  loopback_ns = std::min(loopback_ns, replay.loopback_ns);
  for (std::size_t i = 0; i < kLayerCount; ++i)
    top_ns[i] = seen ? std::min(top_ns[i], top[i]) : top[i];
  seen = true;
}

double Minima::dispatch_us() const noexcept {
  std::uint64_t top = 0;
  for (const std::uint64_t ns : top_ns) top += ns;
  return (static_cast<double>(loopback_ns) - static_cast<double>(top)) / 1e3;
}

double Minima::write_us() const noexcept {
  return (static_cast<double>(tcp_ns) - static_cast<double>(loopback_ns)) / 1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

Ledger::Ledger(const Plan& plan, const std::string& work_dir)
    : plan_(plan),
      store_params_(bench_store_options().params),
      window_bits_(std::clamp(config_.hw.dict_bits, 8u, 15u)),
      hw_(std::make_unique<lzss::hw::Compressor>(config_.hw)),
      stored_(plan.items.size()),
      stored_zlib_(plan.items.size(), false),
      minima_(2 * plan.items.size()) {
  // The service's hashchain parameters mirror its hw configuration.
  sw_params_.window_bits = config_.hw.dict_bits;
  sw_params_.hash = config_.hw.hash;
  sw_params_.max_chain = config_.hw.max_chain;
  sw_params_.nice_length = config_.hw.nice_length;
  sw_params_.max_lazy = config_.hw.max_insert;
  sw_params_.finder = lzss::core::MatchFinderKind::kHashChain;

  replay_service_ = std::make_unique<srv::Service>(config_);
  if (plan.kind == WorkloadKind::kLog) {
    dirs_.push_back(make_fresh_dir(work_dir, "replay-store"));
    dirs_.push_back(make_fresh_dir(work_dir, "side-store"));
    replay_store_ = std::make_unique<lzss::store::LogStore>(dirs_[0], bench_store_options());
    side_store_ = std::make_unique<lzss::store::LogStore>(dirs_[1], bench_store_options());
    replay_service_->attach_store(replay_store_.get());
  }
  loopback_ = std::make_unique<srv::LoopbackClient>(*replay_service_);
}

Ledger::~Ledger() {
  loopback_.reset();
  replay_service_->stop();
  replay_service_.reset();
  replay_store_.reset();
  side_store_.reset();
  for (const auto& dir : dirs_) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

Replay Ledger::replay(const Request& request) {
  Replay out;
  out.key = 2 * static_cast<std::size_t>(request.item - plan_.items.data()) +
            (request.frame.opcode == srv::Opcode::kLogRead ? 1 : 0);
  {
    const auto t0 = Clock::now();
    const srv::ResponseFrame resp = loopback_->call(request.frame);
    out.loopback_ns = elapsed_ns(t0, Clock::now());
    out.loopback_status = resp.status;
  }
  timed(out.spans, Layer::kParse, true, request.frame.payload.size(), [&] {
    const auto wire = srv::encode_request(request.frame);
    srv::RequestParser parser;
    parser.feed(wire);
    return parser.next().has_value();
  });
  switch (request.frame.opcode) {
    case srv::Opcode::kCompress: replay_compress(request, out); break;
    case srv::Opcode::kDecompress: replay_decompress(request, out); break;
    case srv::Opcode::kLogAppend: replay_log_append(request, out); break;
    case srv::Opcode::kLogRead: replay_log_read(request, out); break;
    default: break;
  }
  return out;
}

void Ledger::replay_compress(const Request& request, Replay& out) {
  // Service::do_compress: Adler-32 of the input for the response header,
  // the match search, then zlib_wrap_tokens (fixed block, Adler-32, wrap).
  const std::span<const std::uint8_t> input(request.frame.payload);
  const std::uint64_t n = input.size();
  sink_ ^= timed(out.spans, Layer::kAdler32, true, n,
                 [&] { return lzss::checksum::adler32(input); });
  std::vector<lzss::core::Token> tokens;
  if (srv::matchfinder_of_flags(request.frame.flags) == kHashChainSelector) {
    auto encoder = timed(out.spans, Layer::kLzssSetup, true, 0, [&] {
      return std::make_unique<lzss::core::MatchFinderEncoder>(sw_params_);
    });
    tokens = timed(out.spans, Layer::kLzssMatch, true, n, [&] { return encoder->encode(input); });
    out.probes = encoder->finder_stats().probes;
    out.compare_bytes = encoder->finder_stats().compare_bytes;
  } else {
    auto result = timed(out.spans, Layer::kHwMatch, true, n, [&] { return hw_->compress(input); });
    out.sim_cycles = result.stats.total_cycles;
    tokens = std::move(result.tokens);
  }
  const auto stream = timed(out.spans, Layer::kEntropy, true, n,
                            [&] { return lzss::deflate::deflate_fixed(tokens); });
  const std::uint32_t adler = timed(out.spans, Layer::kAdler32, true, n,
                                    [&] { return lzss::checksum::adler32(input); });
  const auto wrapped = timed(out.spans, Layer::kWrap, true, stream.size(), [&] {
    return lzss::deflate::zlib_wrap(stream, adler, window_bits_);
  });
  sink_ ^= static_cast<std::uint32_t>(wrapped.size());
}

void Ledger::replay_decompress(const Request& request, Replay& out) {
  // Service::do_decompress: LZBC goes through parse + per-block decode
  // (inflate + CRC-32), everything else through zlib_decompress; both end
  // with the Adler-32 of the output for the response header.
  const std::span<const std::uint8_t> payload(request.frame.payload);
  std::vector<std::uint8_t> output;
  if (lzss::container::looks_like_container(payload)) {
    lzss::container::SuperframeView view;
    output = timed(out.spans, Layer::kDecodeBlock, true, 0, [&] {
      view = lzss::container::parse(payload, config_.max_payload);
      std::vector<std::uint8_t> raw(static_cast<std::size_t>(view.raw_total));
      for (const auto& b : view.blocks)
        lzss::container::decode_block(
            b, std::span<std::uint8_t>(raw).subspan(b.raw_offset, b.raw_len));
      return raw;
    });
    out.spans.back().bytes = output.size();
    for (const auto& b : view.blocks) {
      const std::span<const std::uint8_t> block(output.data() + b.raw_offset, b.raw_len);
      sink_ ^= timed(out.spans, Layer::kCrc32, false, block.size(),
                     [&] { return lzss::checksum::crc32(block); });
    }
  } else {
    output = timed(out.spans, Layer::kInflate, true, 0, [&] {
      return lzss::deflate::zlib_decompress(payload, config_.max_payload);
    });
    out.spans.back().bytes = output.size();
  }
  sink_ ^= timed(out.spans, Layer::kAdler32, true, output.size(),
                 [&] { return lzss::checksum::adler32(output); });
}

void Ledger::replay_log_append(const Request& request, Replay& out) {
  // Service::do_log_append: LogStore::append, then the Adler-32 of the
  // record for the response header. Inside append: zlib_compress
  // (SoftwareEncoder, dynamic block, Adler-32, wrap) and the CRC-32 of the
  // record framing; those calls are children of the append span.
  const std::span<const std::uint8_t> record(request.frame.payload);
  const std::uint64_t n = record.size();
  const std::uint64_t seq =
      timed(out.spans, Layer::kStoreAppend, true, n, [&] { return side_store_->append(record); });
  sink_ ^= static_cast<std::uint32_t>(seq);

  lzss::core::SoftwareEncoder encoder(store_params_);
  const auto tokens =
      timed(out.spans, Layer::kSwEncoder, false, n, [&] { return encoder.encode(record); });
  const auto stream = timed(out.spans, Layer::kDynamicEntropy, false, n,
                            [&] { return lzss::deflate::deflate_dynamic(tokens); });
  const std::uint32_t adler = timed(out.spans, Layer::kAdler32, false, n,
                                    [&] { return lzss::checksum::adler32(record); });
  auto wrapped = timed(out.spans, Layer::kWrap, false, stream.size(), [&] {
    return lzss::deflate::zlib_wrap(stream, adler,
                                    std::clamp(store_params_.window_bits, 8u, 15u));
  });
  const bool zlib = wrapped.size() < record.size();
  std::vector<std::uint8_t> stored =
      zlib ? std::move(wrapped) : std::vector<std::uint8_t>(record.begin(), record.end());
  // The record image is a 28-byte header whose CRC covers the first 24
  // bytes and the stored payload.
  const std::uint8_t header[lzss::store::kRecordHeaderSize - 4] = {};
  sink_ ^= timed(out.spans, Layer::kCrc32, false, sizeof(header) + stored.size(), [&] {
    lzss::checksum::Crc32 crc;
    crc.update(header);
    crc.update(stored);
    return crc.value();
  });

  const auto index = static_cast<std::size_t>(request.item - plan_.items.data());
  stored_[index] = std::move(stored);
  stored_zlib_[index] = zlib;

  sink_ ^= timed(out.spans, Layer::kAdler32, true, n,
                 [&] { return lzss::checksum::adler32(record); });
}

void Ledger::replay_log_read(const Request& request, Replay& out) {
  // Service::do_log_read: LogStore::read (pread, then zlib_decompress for a
  // compressed record), then the Adler-32 of the record.
  const std::uint64_t seq = get_le64(request.frame.payload);
  const auto record =
      timed(out.spans, Layer::kStoreRead, true, 0, [&] { return side_store_->read(seq); });
  out.spans.back().bytes = record.size();

  const auto index = static_cast<std::size_t>(request.item - plan_.items.data());
  if (stored_zlib_[index]) {
    const auto raw = timed(out.spans, Layer::kInflate, false, record.size(), [&] {
      return lzss::deflate::zlib_decompress(stored_[index], request.item->raw.size());
    });
    sink_ ^= static_cast<std::uint32_t>(raw.size());
  }
  sink_ ^= timed(out.spans, Layer::kAdler32, true, record.size(),
                 [&] { return lzss::checksum::adler32(record); });
}

void Ledger::book(const Replay& replay, std::uint64_t tcp_ns, double queue_wait_us,
                  std::uint64_t pass) {
  minima_[replay.key].add(replay, tcp_ns);
  if (pass == 0) {
    for (const Span& s : replay.spans) {
      if (s.layer == Layer::kLzssMatch) first_lzss_bytes_ += s.bytes;
      if (s.layer == Layer::kHwMatch) first_hw_bytes_ += s.bytes;
    }
    first_hw_cycles_ += replay.sim_cycles;
    first_probes_ += replay.probes;
    first_compare_bytes_ += replay.compare_bytes;
    return;
  }

  request_ms_.push_back(static_cast<double>(tcp_ns) / 1e6);
  queue_wait_us_sum_ += queue_wait_us;
  for (const Span& s : replay.spans) {
    const auto i = static_cast<std::size_t>(s.layer);
    layer_ns_[i] += s.ns;
    layer_bytes_[i] += s.bytes;
    layer_call_us_[i].push_back(static_cast<double>(s.ns) / 1e3);
    if (s.layer == Layer::kHwMatch) hw_ns_ += s.ns;
  }
  hw_cycles_ += replay.sim_cycles;
}

std::uint64_t Ledger::negative_dispatch() const {
  return static_cast<std::uint64_t>(std::count_if(
      minima_.begin(), minima_.end(), [](const Minima& m) { return m.seen && m.dispatch_us() < 0; }));
}

std::uint64_t Ledger::negative_write() const {
  return static_cast<std::uint64_t>(std::count_if(
      minima_.begin(), minima_.end(), [](const Minima& m) { return m.seen && m.write_us() < 0; }));
}

std::vector<Metric> Ledger::metrics() const {
  const auto rate = [this](Layer l) {
    const auto i = static_cast<std::size_t>(l);
    return mb_per_s(layer_bytes_[i], layer_ns_[i]);
  };
  const auto call_us = [this](Layer l) {
    return median(layer_call_us_[static_cast<std::size_t>(l)]);
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  std::vector<double> dispatch_us, write_us;
  for (const Minima& m : minima_) {
    if (!m.seen) continue;
    dispatch_us.push_back(m.dispatch_us());
    write_us.push_back(m.write_us());
  }
  const auto requests = static_cast<double>(request_ms_.size());
  return {
      {"server.parse_us", call_us(Layer::kParse), "us"},
      {"server.queue_wait_us", requests == 0 ? 0.0 : queue_wait_us_sum_ / requests, "us"},
      {"server.dispatch_us", median(dispatch_us), "us"},
      {"server.write_us", median(write_us), "us"},
      {"hw.match_mb_s", rate(Layer::kHwMatch), "MB/s"},
      {"hw.sim_cycles_per_byte", ratio(first_hw_cycles_, first_hw_bytes_), "cycle/B"},
      {"hw.host_ns_per_sim_cycle", ratio(hw_ns_, hw_cycles_), "ns/cycle"},
      {"lzss.setup_us", call_us(Layer::kLzssSetup), "us"},
      {"lzss.match_mb_s", rate(Layer::kLzssMatch), "MB/s"},
      {"lzss.probes_per_byte", ratio(first_probes_, first_lzss_bytes_), "count"},
      {"lzss.compare_bytes_per_probe", ratio(first_compare_bytes_, first_probes_), "count"},
      {"lzss.sw_encoder_mb_s", rate(Layer::kSwEncoder), "MB/s"},
      {"deflate.entropy_mb_s", rate(Layer::kEntropy), "MB/s"},
      {"deflate.dynamic_entropy_mb_s", rate(Layer::kDynamicEntropy), "MB/s"},
      {"deflate.wrap_us", call_us(Layer::kWrap), "us"},
      {"deflate.inflate_mb_s", rate(Layer::kInflate), "MB/s"},
      {"checksum.adler32_mb_s", rate(Layer::kAdler32), "MB/s"},
      {"checksum.crc32_mb_s", rate(Layer::kCrc32), "MB/s"},
      {"container.decode_block_mb_s", rate(Layer::kDecodeBlock), "MB/s"},
      {"store.append_us", call_us(Layer::kStoreAppend), "us"},
      {"store.read_us", call_us(Layer::kStoreRead), "us"},
      {"trace.request_p50_ms", median(request_ms_), "ms"},
  };
}

}  // namespace perfbench
