// The per-layer ledger of the traced run.
//
// After each request the traced run replays that request's work through the
// modules' public functions, outside the request interval, and records a
// span around every call: the LoopbackClient::call of the same frame (the
// in-process stack with no socket), the frame parse, and each layer call the
// service makes for that opcode. The request span (TcpClient::call) is the
// parent of them all; store and LZBC spans have the calls inside them as
// children. A layer span is the replaying thread's CPU time for the call, so
// a replay the scheduler interrupts does not charge the wait to the layer;
// the loopback and request spans are wall time. Self times follow:
//
//   server.write_us    = TcpClient::call - LoopbackClient::call
//   server.dispatch_us = LoopbackClient::call - the replayed top-level calls
//
// The terms are separate executions of the same work, so each one is taken
// as its fastest repeat: every distinct request recurs once per pass, and
// the ledger keeps the minimum of each term per request. A single pair of
// executions differs by more than the fixed costs being measured (a 64 KiB
// hw request varies by hundreds of microseconds); the minima do not.
//
// Replays run against a second service (ServiceConfig defaults) so that a
// replayed LOG_APPEND never touches the measured store; in the log workload
// that service's store and a directly driven side store receive every
// record in the same order, so their sequences mirror the measured store.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/compressor.hpp"
#include "lzss/params.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The layer calls a replay times.
enum class Layer : std::uint8_t {
  kParse,           ///< encode_request + RequestParser::feed/next
  kHwMatch,         ///< hw::Compressor::compress
  kLzssSetup,       ///< MatchFinderEncoder construction
  kLzssMatch,       ///< MatchFinderEncoder::encode
  kSwEncoder,       ///< SoftwareEncoder::encode (store records)
  kEntropy,         ///< deflate_fixed
  kDynamicEntropy,  ///< deflate_dynamic
  kWrap,            ///< zlib_wrap
  kInflate,         ///< zlib_decompress
  kAdler32,         ///< checksum::adler32
  kCrc32,           ///< checksum::crc32
  kDecodeBlock,     ///< container::parse + decode_block
  kStoreAppend,     ///< LogStore::append on the side store
  kStoreRead,       ///< LogStore::read on the side store
};
inline constexpr std::size_t kLayerCount = 14;

struct Span {
  Layer layer = Layer::kParse;
  /// True for a direct child of the request; false for a call nested in a
  /// store or LZBC span (it is already inside its parent's time).
  bool top_level = true;
  std::uint64_t ns = 0;      ///< CPU time of the call
  std::uint64_t bytes = 0;  ///< bytes the call processed
};

/// One request's replay.
struct Replay {
  /// Identifies the distinct request (plan item and opcode) across passes.
  std::size_t key = 0;
  std::uint64_t loopback_ns = 0;
  lzss::server::Status loopback_status = lzss::server::Status::kOk;
  std::vector<Span> spans;
  std::uint64_t sim_cycles = 0;     ///< hw: simulated clock cycles
  std::uint64_t probes = 0;         ///< lzss: finder_stats().probes
  std::uint64_t compare_bytes = 0;  ///< lzss: finder_stats().compare_bytes
};

/// Per distinct request: the fastest repeat of each term of its self times.
struct Minima {
  std::uint64_t tcp_ns = UINT64_MAX;
  std::uint64_t loopback_ns = UINT64_MAX;
  /// Per layer, the fastest repeat of that layer's top-level time.
  std::array<std::uint64_t, kLayerCount> top_ns{};
  bool seen = false;

  void add(const Replay& replay, std::uint64_t tcp);
  /// LoopbackClient::call minus the replayed top-level calls.
  [[nodiscard]] double dispatch_us() const noexcept;
  /// TcpClient::call minus LoopbackClient::call.
  [[nodiscard]] double write_us() const noexcept;
};

class Ledger {
 public:
  /// @param work_dir parent of the side stores (log only).
  Ledger(const Plan& plan, const std::string& work_dir);
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Replays @p request: the loopback call first, then each layer call.
  [[nodiscard]] Replay replay(const Request& request);

  /// Books one traced request: its TCP time, the server_queue_wait_us the
  /// service recorded for it, and its replay. Deterministic counts (cycles
  /// and probes per byte) come from the warm-up pass 0, the timings from
  /// the later passes; every pass refines the self-time minima.
  void book(const Replay& replay, std::uint64_t tcp_ns, double queue_wait_us, std::uint64_t pass);

  /// Every per-layer metric, in a fixed order. A layer the workload never
  /// calls reads 0.
  [[nodiscard]] std::vector<Metric> metrics() const;

  /// Distinct requests whose dispatch / write self time came out negative.
  [[nodiscard]] std::uint64_t negative_dispatch() const;
  [[nodiscard]] std::uint64_t negative_write() const;

 private:
  void replay_compress(const Request& request, Replay& out);
  void replay_decompress(const Request& request, Replay& out);
  void replay_log_append(const Request& request, Replay& out);
  void replay_log_read(const Request& request, Replay& out);

  const Plan& plan_;
  lzss::server::ServiceConfig config_;
  lzss::core::MatchParams sw_params_;     ///< what the service gives hashchain
  lzss::core::MatchParams store_params_;  ///< what the store encodes records with
  unsigned window_bits_ = 15;
  std::unique_ptr<lzss::hw::Compressor> hw_;

  std::vector<std::string> dirs_;
  std::unique_ptr<lzss::store::LogStore> replay_store_;
  std::unique_ptr<lzss::store::LogStore> side_store_;
  std::unique_ptr<lzss::server::Service> replay_service_;
  std::unique_ptr<lzss::server::LoopbackClient> loopback_;
  /// Stored record bytes per plan item, kept from its append replay so a
  /// read replay can checksum and inflate what the store holds.
  std::vector<std::vector<std::uint8_t>> stored_;
  std::vector<bool> stored_zlib_;

  // Aggregates.
  std::array<std::uint64_t, kLayerCount> layer_ns_{};
  std::array<std::uint64_t, kLayerCount> layer_bytes_{};
  std::array<std::vector<double>, kLayerCount> layer_call_us_{};
  std::vector<Minima> minima_;  ///< indexed by Replay::key
  std::vector<double> request_ms_;
  double queue_wait_us_sum_ = 0;
  std::uint64_t hw_cycles_ = 0, hw_ns_ = 0;
  std::uint64_t first_hw_cycles_ = 0, first_hw_bytes_ = 0;
  std::uint64_t first_probes_ = 0, first_compare_bytes_ = 0, first_lzss_bytes_ = 0;
  std::uint32_t sink_ = 0;  ///< keeps checksum results observable
};

/// Median of @p v (0 when empty); reorders @p v.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
