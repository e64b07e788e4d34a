#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>

#include "common/checksum.hpp"
#include "deflate/inflate.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

namespace srv = lzss::server;

double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

/// Nearest-rank quantile of an ascending vector.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// JSON has no infinity: a latency or cost that is infinite (a failed
/// request) is written as the largest double, so it still reads as worst.
std::string json_number(double v) {
  if (std::isnan(v)) v = 0.0;
  v = std::clamp(v, std::numeric_limits<double>::lowest(), std::numeric_limits<double>::max());
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" + json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// server_queue_wait_us total so far (every job the queue handed out).
std::uint64_t queue_wait_total_us(srv::Service& service) {
  return service.queue_wait_histogram().merged().sum;
}

}  // namespace

std::string verify(const Request& request, const srv::ResponseFrame& response) {
  if (response.status != srv::Status::kOk) return srv::status_name(response.status);
  const std::vector<std::uint8_t>& raw = request.item->raw;
  switch (request.frame.opcode) {
    case srv::Opcode::kCompress: {
      if (response.adler != lzss::checksum::adler32(raw)) return "mismatch";
      try {
        if (lzss::deflate::zlib_decompress(response.payload) != raw) return "mismatch";
      } catch (const std::exception&) {
        return "mismatch";
      }
      return {};
    }
    case srv::Opcode::kDecompress:
    case srv::Opcode::kLogRead:
      if (response.payload != raw || response.adler != lzss::checksum::adler32(raw))
        return "mismatch";
      return {};
    case srv::Opcode::kLogAppend: {
      if (response.payload.size() != 8) return "mismatch";
      std::uint64_t seq = 0;
      for (int i = 7; i >= 0; --i) seq = (seq << 8) | response.payload[static_cast<std::size_t>(i)];
      return seq == request.expect_seq ? std::string() : std::string("mismatch");
    }
    default:
      return "mismatch";
  }
}

Result run_benchmark(const Options& options) {
  Result res;
  res.options = options;

  // Set-up: corpus generation, service and listener start, the decompress
  // containers, the store. Repeated for setup_s (see kMinSetupReps); the
  // last one is kept. A traced run does not report setup_s and sets up once.
  std::unique_ptr<Env> env;
  double setup_total_s = 0;
  for (;;) {
    env.reset();
    const auto t0 = Clock::now();
    env = std::make_unique<Env>(options.workload, options.seed, options.work_dir);
    const double s = static_cast<double>(elapsed_ns(t0, Clock::now())) / 1e9;
    res.setup_runs_s.push_back(s);
    setup_total_s += s;
    const std::size_t reps = res.setup_runs_s.size();
    if (options.trace || reps >= kMaxSetupReps ||
        (reps >= kMinSetupReps && setup_total_s >= kSetupBudgetS))
      break;
  }
  if (env->setup_failures() != 0) {
    res.failures["setup"] += env->setup_failures();
    res.failed += env->setup_failures();
  }

  const Plan& plan = env->plan();
  std::unique_ptr<Ledger> ledger;
  if (options.trace) ledger = std::make_unique<Ledger>(plan, options.work_dir);

  // Pass 0 is an untimed warm-up: its responses are verified and counted,
  // and it gives the ratio, but it adds to no timing metric. The measuring
  // time starts when it ends.
  Sequence sequence(plan, options.seed);
  // Every metric of time is taken per pass (every pass sends the same
  // requests) and reported as the median over passes, so a burst of load
  // from outside the process moves one pass, not the result. The host's
  // slow spells lengthen the latency tail most of all.
  std::vector<double> latency_ms, all_latency_ms;
  std::vector<double> pass_mb_s, pass_cpu_s_per_mb, pass_p50_ms, pass_p90_ms, pass_p99_ms;
  std::uint64_t busy_ns = 0, payload_bytes = 0;
  double cpu_s = 0;
  std::uint64_t ratio_out = 0, ratio_in = 0;  // warm-up pass, compressed over raw

  const auto measuring = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(0.0, options.seconds)));
  Clock::time_point deadline{};
  for (;;) {
    Request req = sequence.next();
    const std::uint64_t q0 = ledger ? queue_wait_total_us(env->service()) : 0;
    srv::ResponseFrame resp;
    std::string failure;

    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    try {
      resp = env->client().call(req.frame);
    } catch (const std::exception&) {
      failure = "transport";
    }
    const auto t1 = Clock::now();
    const double c1 = process_cpu_s();

    const std::uint64_t ns = elapsed_ns(t0, t1);
    ++res.attempted;
    if (failure.empty()) failure = verify(req, resp);
    const bool ok = failure.empty();
    if (!ok) {
      ++res.failed;
      ++res.failures[failure];
      if (failure == "transport") env->reconnect();
    }

    if (req.pass == 0) {
      if (ok && req.frame.opcode == srv::Opcode::kCompress) {
        ratio_out += resp.payload.size();
        ratio_in += req.item->raw.size();
      } else if (ok && req.frame.opcode == srv::Opcode::kDecompress) {
        ratio_out += req.frame.payload.size();
        ratio_in += req.item->raw.size();
      }
      if (req.last_of_pass && env->store() != nullptr) {
        const auto stats = env->store()->stats();
        ratio_out = stats.bytes_stored;
        ratio_in = stats.bytes_in;
      }
    } else {
      // A failed request's time and CPU count, its payload does not, and
      // its latency lies beyond every limit.
      busy_ns += ns;
      cpu_s += c1 - c0;
      latency_ms.push_back(ok ? static_cast<double>(ns) / 1e6
                              : std::numeric_limits<double>::infinity());
      if (ok) payload_bytes += req.item->raw.size();
    }

    if (ledger) {
      const double queue_us = static_cast<double>(queue_wait_total_us(env->service()) - q0);
      const Replay replay = ledger->replay(req);
      if (replay.loopback_status != srv::Status::kOk) {
        ++res.failed;
        ++res.failures[std::string("replay:") + srv::status_name(replay.loopback_status)];
      }
      ledger->book(replay, ns, queue_us, req.pass);
    }

    if (req.last_of_pass) {
      if (req.pass == 0) {
        deadline = Clock::now() + measuring;
        continue;
      }
      ++res.passes;
      const double mb = static_cast<double>(payload_bytes) / 1e6;
      pass_mb_s.push_back(mb / (static_cast<double>(busy_ns) / 1e9));
      pass_cpu_s_per_mb.push_back(mb == 0 ? std::numeric_limits<double>::infinity()
                                          : cpu_s / mb);
      std::sort(latency_ms.begin(), latency_ms.end());
      pass_p50_ms.push_back(quantile(latency_ms, 0.50));
      pass_p90_ms.push_back(quantile(latency_ms, 0.90));
      pass_p99_ms.push_back(quantile(latency_ms, 0.99));
      all_latency_ms.insert(all_latency_ms.end(), latency_ms.begin(), latency_ms.end());
      latency_ms.clear();
      busy_ns = 0;
      payload_bytes = 0;
      cpu_s = 0;
      if (Clock::now() >= deadline) break;
    }
  }

  res.p50_ms = median(pass_p50_ms);
  res.p99_ms = median(pass_p99_ms);
  res.p99_tail_samples = static_cast<std::uint64_t>(
      std::count_if(all_latency_ms.begin(), all_latency_ms.end(),
                    [p99 = res.p99_ms](double ms) { return ms > p99; }));

  if (ledger) {
    res.metrics = ledger->metrics();
    res.negative_dispatch = ledger->negative_dispatch();
    res.negative_write = ledger->negative_write();
    return res;
  }
  res.metrics = {
      {"throughput_mb_s", median(pass_mb_s), "MB/s"},
      {"latency_p90_ms", median(pass_p90_ms), "ms"},
      {"cpu_s_per_mb", median(pass_cpu_s_per_mb), "s/MB"},
      {"ratio",
       ratio_in == 0 ? 0.0 : static_cast<double>(ratio_out) / static_cast<double>(ratio_in),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(res.setup_runs_s), "s"},
  };
  return res;
}

std::string Result::record_json() const {
  std::string out = "{\"benchmark\":\"lzrq\",\"workload\":";
  out += json_string(workload_name(options.workload));
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"seconds\":" + json_number(options.seconds);
  out += std::string(",\"trace\":") + (options.trace ? "1" : "0");
  out += ",\"load\":\"closed loop, 1 client, 1 TCP connection to 127.0.0.1\"";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"error_rate\":" +
         json_number(attempted == 0 ? 0.0
                                    : static_cast<double>(failed) / static_cast<double>(attempted));
  out += ",\"failures\":{";
  bool first = true;
  for (const auto& [cls, count] : failures) {
    if (!first) out += ",";
    first = false;
    out += json_string(cls) + ":" + std::to_string(count);
  }
  out += "},\"passes\":" + std::to_string(passes);
  out += ",\"latency_p50_ms\":" + json_number(p50_ms);
  out += ",\"latency_p99_ms\":" + json_number(p99_ms);
  out += ",\"p99_tail_samples\":" + std::to_string(p99_tail_samples);
  out += ",\"setup_runs_s\":[";
  for (std::size_t i = 0; i < setup_runs_s.size(); ++i)
    out += (i == 0 ? "" : ",") + json_number(setup_runs_s[i]);
  out += "]";
  if (options.trace) {
    out += ",\"negative_dispatch\":" + std::to_string(negative_dispatch);
    out += ",\"negative_write\":" + std::to_string(negative_write);
  }
  out += ",\"metrics\":" + metrics_json(metrics);
  out += ",\"fingerprint\":" + fingerprint.json() + "}";
  return out;
}

std::string Result::result_json() const {
  std::string out = "{\"correct\":";
  out += failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":" + metrics_json(metrics) + "}";
  return out;
}

}  // namespace perfbench
