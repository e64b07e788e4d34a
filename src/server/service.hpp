// The compression service: a fixed worker pool behind a bounded MPMC queue,
// hardened so no request is ever left unanswered.
//
// This is the software analogue of the valid/ready backpressure the hardware
// model exposes in stream/channel.hpp: the queue has a fixed depth, and when
// it is full submit() answers BUSY immediately instead of blocking — the
// client decides whether to retry, exactly like a stalled LocalLink producer.
//
// Dispatch policy: PING and STATS are control-plane and answered inline (they
// never queue, never see BUSY). COMPRESS and DECOMPRESS are data-plane and go
// through the queue to a worker. The hw backend serves the cycle model's
// tokens from its untimed functional twin (hw/functional.hpp). An hw zlib
// COMPRESS is one stream of 16 KiB parts, each matched on its own engine
// primed with the window before it and packed as one fixed-Huffman block
// (the codec's deflate_in_parts); a raw LZS1 COMPRESS is one token stream. The first hw-backend COMPRESS / COMPRESS_BLOCKED and every
// 64th after it run the cycle model itself — hw::compress_tokens with a
// census for that request's configuration (one run per part or block) —
// and export the census; the response bytes are the same either way.
// COMPRESS_BLOCKED builds an LZBC block container with the codec's
// block_compress (container/codec.hpp), and DECOMPRESS sniffs the LZBC magic
// and inverts blocked containers with block_decompress. The service hands
// all three its runner, run_blocks: the blocks fan across the pool as internal
// sub-jobs on the same bounded queue (container/scheduler.hpp), with the
// per-block spans and metrics. The parent request's worker always
// participates in the fan-out, so a saturated queue degrades to
// single-worker throughput instead of deadlocking.
//
// Robustness contract (see docs/SERVER.md "Failure semantics"):
//  * Deadlines — with request_timeout_ms set, a watchdog thread fails
//    requests that sit in the queue past their deadline with
//    DEADLINE_EXCEEDED, and workers refuse to start on already-expired jobs.
//  * Watchdog recovery — with hung_worker_ms set, a worker that dies
//    mid-request (simulated by the kKillWorker fault) or stays busy past the
//    threshold is poisoned: its orphaned request is answered with a typed
//    error (INTERNAL for a dead worker, DEADLINE_EXCEEDED for a hung one)
//    and a replacement worker is spawned, so one wedged request never takes
//    a pool slot down with it.
//  * Graceful degradation — when the model path throws, or the output would
//    be larger than the input (the ratio guard), COMPRESS falls back to a
//    stored (uncompressed-block) container instead of erroring; the
//    server_fallbacks_total counter in STATS counts these.
// Every in-flight request carries an answered flag, so the worker and the
// watchdog can race to complete it and exactly one response wins.
//
// Observability: every counter and latency sample lives in an obs::Registry
// (sharded counters and log-linear histograms — no sample ring, no overwrite,
// no stats mutex on the hot path). finish() is the single place a response's
// status is classified, so per-opcode requests == ok + busy + errors exactly,
// wherever the response was produced (inline reject, worker, watchdog, or
// drain rescue). Census samples also export the hw model's per-FSM-state
// cycle census (the paper's fig. 5) into the same registry, and a collector
// mirrors the fault-point trigger table. The STATS opcode renders the whole
// registry, and nothing else, as a machine-readable JSON snapshot
// ({"metrics":[...]}); lzssd's shutdown table reads the same registry.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "container/codec.hpp"
#include "hw/config.hpp"
#include "obs/trace.hpp"
#include "server/frame.hpp"

namespace lzss::obs {
class Counter;
class EventLog;
class Gauge;
class Histogram;
class Registry;
}  // namespace lzss::obs

namespace lzss::store {
class LogStore;
}

namespace lzss::server {

/// The default worker count: max(2, std::thread::hardware_concurrency()).
/// Only the pool's width follows the host; no response byte does.
[[nodiscard]] unsigned default_workers() noexcept;

struct ServiceConfig {
  unsigned workers = default_workers();  ///< data-plane worker threads
  std::size_t queue_depth = 64;          ///< bounded MPMC queue capacity
  /// COMPRESS_BLOCKED split size (clamped up to the dictionary size, see
  /// container::block_compress); lzssd exposes it as --block-kb.
  std::size_t block_bytes = 256 * 1024;
  std::size_t max_payload = kMaxPayload; ///< per-request payload cap
  std::uint32_t request_timeout_ms = 0;  ///< 0 = no per-request deadline
  std::uint32_t hung_worker_ms = 0;      ///< 0 = no hung/dead worker recovery
  /// Metrics sink. Null = the service creates and owns a private registry
  /// (tests and benches stay isolated); non-null = report into a shared one
  /// (lzssd shares a registry across the service, the store, and the hw
  /// census). Must outlive the service.
  obs::Registry* registry = nullptr;
  /// Trace-span ring; null disables request tracing. Must outlive the service.
  obs::TraceRing* trace = nullptr;
  /// Head-based trace-context sampling: every Nth request gets a trace id
  /// (and therefore a request-root span + hierarchy). 1 = every request,
  /// 0 = only requests whose client sent a trace id (kFlagTraced). A
  /// client-supplied id always forces the trace regardless of sampling.
  std::uint32_t trace_sample = 16;
  /// Slow-request flight recorder: traced requests whose latency reaches
  /// slow_trace_us get their whole span tree copied into this keep-ring
  /// (lzssd serves it at GET /trace/slow). Null or 0 disables.
  obs::TraceRing* slow_trace = nullptr;
  std::uint64_t slow_trace_us = 0;
  /// Structured event sink (watchdog respawns, drain rescues); null = off.
  obs::EventLog* events = nullptr;
  hw::HwConfig hw = hw::HwConfig::speed_optimized();
  /// COMPRESS match source when the request does not pin one through its
  /// frame flags (lzssd --matchfinder; docs/MATCHFINDER.md).
  MatchBackend match_backend = MatchBackend::kHw;

  void validate() const;  ///< throws std::invalid_argument when inconsistent
};

class Service {
 public:
  using Completion = std::function<void(ResponseFrame&&)>;

  explicit Service(ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Never blocks. PING/STATS complete inline; COMPRESS/DECOMPRESS either
  /// enqueue (completion fires later on a worker or watchdog thread) or
  /// complete inline with BUSY when the queue is full.
  void submit(RequestFrame&& request, Completion done);

  /// The STATS opcode's payload: {"metrics":[...]}, every sample in the
  /// metrics registry.
  [[nodiscard]] std::string stats_json() const;
  /// The registry this service reports into (its own unless one was shared
  /// through ServiceConfig::registry).
  [[nodiscard]] obs::Registry& metrics() const noexcept { return *registry_; }
  /// The enqueue→dispatch wait histogram. The TCP front end reads a
  /// windowed p99 of this to drive brownout shedding (docs/SERVER.md).
  [[nodiscard]] obs::Histogram& queue_wait_histogram() const noexcept {
    return *queue_wait_us_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// Attaches a durable log store (not owned; must outlive the service).
  /// LOG_APPEND/LOG_READ answer UNSUPPORTED until a store is attached.
  /// Call before traffic starts — the pointer is read by worker threads.
  void attach_store(store::LogStore* log_store) noexcept { store_ = log_store; }
  [[nodiscard]] store::LogStore* attached_store() const noexcept { return store_; }

  /// Drains the queue (pending jobs still run) and joins the workers and the
  /// watchdog. Any request still unanswered after the drain (possible only
  /// when a kill fault felled the last worker with the watchdog disabled) is
  /// answered INTERNAL. Called by the destructor; idempotent.
  void stop();

 private:
  /// Per-request trace state, resolved once in submit() (sampling decision,
  /// client-forced ids) and carried to finish() wherever the response is
  /// produced. Inactive (trace_id 0) requests still run exactly as before.
  struct RequestTrace {
    obs::TraceContext ctx;         ///< trace id + root span as parent
    std::uint64_t root_span = 0;   ///< span id of the "request" root span
    std::uint64_t start_us = 0;    ///< steady (TraceRing::now_us) at arrival
    std::uint64_t wall_us = 0;     ///< wall-clock epoch µs at arrival
  };

  /// One in-flight request. Shared between the owning worker and the
  /// watchdog; whoever wins the answered flag delivers the response.
  /// When `block_work` is set the job is an internal container sub-job: it
  /// runs a slice of another request's block fan-out and produces no
  /// response of its own (the parent request assembles and answers). It still rides the same bounded queue, so
  /// BUSY, deadline reaping and watchdog rescue apply per block.
  struct Job {
    RequestFrame request;
    Completion done;
    std::function<void()> block_work;
    std::chrono::steady_clock::time_point enqueued_at;
    RequestTrace trace;
    std::atomic<bool> answered{false};
  };
  using JobPtr = std::shared_ptr<Job>;

  /// A worker slot. `current`/`busy_since` are guarded by workers_mutex_;
  /// `exited` flips once when the thread leaves its loop.
  struct Worker {
    std::thread thread;
    std::condition_variable wake;  ///< an idle worker waits here, on queue_mutex_
    JobPtr current;
    std::chrono::steady_clock::time_point busy_since{};
    std::atomic<bool> exited{false};
    std::atomic<bool> poisoned{false};
  };

  void worker_loop(Worker* self);
  void watchdog_loop();
  [[nodiscard]] ResponseFrame process(RequestFrame& request);
  /// True for the first hw-backend COMPRESS / COMPRESS_BLOCKED and every
  /// kCensusEvery-th after it: those run the cycle model and export its
  /// census, the rest run the functional twin.
  [[nodiscard]] bool census_due() noexcept;
  [[nodiscard]] ResponseFrame do_compress(const RequestFrame& request,
                                          const hw::HwConfig& cfg);
  [[nodiscard]] ResponseFrame do_decompress(const RequestFrame& request);
  [[nodiscard]] ResponseFrame do_compress_blocked(const RequestFrame& request,
                                                  const hw::HwConfig& cfg);
  [[nodiscard]] ResponseFrame do_decompress_blocked(const RequestFrame& request);
  /// Which way a blocked request goes: picks the block metrics' op label.
  enum class BlockOp : std::uint8_t { kCompress, kDecompress };
  /// The codec driver's runner (bound to @p op): run_fanout over
  /// try_enqueue, with what the service adds to every blocked
  /// request — the reassembly-waiter gauge, the container_block →
  /// engine.encode/engine.decode spans, the per-block count and latency,
  /// and the helper, reject and wait metrics.
  void run_blocks(BlockOp op, std::size_t blocks, const container::BlockFn& block);
  /// The one way onto the bounded queue, for client requests and container
  /// sub-jobs alike; false = queue full or stopping (the caller answers BUSY,
  /// or the parent runs the block itself).
  [[nodiscard]] bool try_enqueue(JobPtr job);
  [[nodiscard]] ResponseFrame do_log_append(const RequestFrame& request);
  [[nodiscard]] ResponseFrame do_log_read(const RequestFrame& request);
  [[nodiscard]] ResponseFrame do_scrub(const RequestFrame& request);
  [[nodiscard]] ResponseFrame do_verify(const RequestFrame& request);
  /// Sampling / client-forced trace resolution; called once per request.
  [[nodiscard]] RequestTrace begin_trace(const RequestFrame& request) noexcept;
  /// Records counters/latency, closes the request-root span, feeds the
  /// slow-trace keep-ring and exemplars, and invokes the completion.
  void finish(Opcode op, const RequestFrame& request, ResponseFrame& response,
              std::chrono::steady_clock::time_point t0, const RequestTrace& rt,
              const Completion& done);
  /// Claims @p job (answered CAS) and finishes it; drops silently when the
  /// job was already answered by the other contender.
  void deliver(const JobPtr& job, ResponseFrame&& response);
  [[nodiscard]] bool expired(const Job& job,
                             std::chrono::steady_clock::time_point now) const noexcept;
  void spawn_worker_locked();

  ServiceConfig cfg_;

  mutable std::mutex queue_mutex_;
  std::deque<JobPtr> queue_;
  /// Idle workers, the most recently idle last; guarded by queue_mutex_.
  /// try_enqueue wakes the last one: its caches are the warmest, and a
  /// light load stays on few threads however wide the pool is.
  std::vector<Worker*> idle_;
  bool stopping_ = false;

  mutable std::mutex workers_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< live slots + unjoined zombies

  std::thread watchdog_;
  std::condition_variable watchdog_cv_;  ///< waits on queue_mutex_ (stop signal)

  // Metrics: sharded registry instruments, resolved once at construction so
  // the request path never takes the registry's name-lookup mutex. See
  // docs/OBSERVABILITY.md for the catalog.
  struct OpInstruments {
    obs::Counter* requests;
    obs::Counter* ok;
    obs::Counter* busy;
    obs::Counter* errors;
    obs::Counter* bytes_in;
    obs::Counter* bytes_out;
    obs::Histogram* latency_us;
  };
  void bind_metrics();

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  obs::EventLog* events_ = nullptr;
  std::atomic<std::uint64_t> trace_seq_{0};  ///< head-based sampling counter
  static constexpr std::uint64_t kCensusEvery = 64;
  std::atomic<std::uint64_t> census_seq_{0};  ///< hw-backend requests seen
  std::array<OpInstruments, kOpcodeCount> opm_{};
  obs::Histogram* queue_wait_us_ = nullptr;   ///< enqueue -> dispatch
  obs::Gauge* queue_depth_g_ = nullptr;       ///< live queue occupancy
  obs::Gauge* queue_high_water_g_ = nullptr;
  obs::Gauge* workers_busy_g_ = nullptr;      ///< workers holding a request now
  obs::Counter* worker_busy_us_ = nullptr;    ///< total processing time (occupancy)
  obs::Counter* deadline_c_ = nullptr;
  obs::Counter* fallbacks_c_ = nullptr;
  obs::Counter* respawns_c_ = nullptr;

  // Match-finder backend instruments (docs/MATCHFINDER.md), indexed by
  // core::MatchFinderKind. The hw path is covered by the cycle census.
  struct FinderInstruments {
    obs::Counter* requests;
    obs::Counter* bytes_in;
    obs::Counter* probes;
    obs::Counter* compare_bytes;
  };
  std::array<FinderInstruments, 2> mf_{};

  // Block-container instruments (docs/CONTAINER.md / docs/OBSERVABILITY.md).
  std::array<obs::Counter*, 2> blocks_c_{};        ///< container_blocks_total{op}, by BlockOp
  std::array<obs::Histogram*, 2> block_lat_us_{};  ///< per-block latency{op}, by BlockOp
  obs::Gauge* reassembly_waiters_g_ = nullptr;     ///< parents waiting on helpers
  obs::Histogram* reassembly_wait_us_ = nullptr;
  obs::Counter* helper_blocks_c_ = nullptr;        ///< blocks run by helper jobs
  obs::Counter* helper_rejects_c_ = nullptr;       ///< helpers refused by the queue
  obs::Counter* block_fallbacks_c_ = nullptr;      ///< stored-method blocks

  store::LogStore* store_ = nullptr;  ///< durable sink for LOG_APPEND/LOG_READ
};

}  // namespace lzss::server
