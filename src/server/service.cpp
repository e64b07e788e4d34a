#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "common/le.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "container/scheduler.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "estimator/presets.hpp"
#include "fault/fault.hpp"
#include "hw/metrics.hpp"
#include "lzss/raw_container.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/log_store.hpp"

namespace lzss::server {

namespace {

/// Largest dictionary a Deflate-carrying response may use: distances past
/// 32 KiB do not exist in Deflate, and a 64 KiB dictionary reaches 65024.
constexpr unsigned kDeflateDictBits = 15;

/// The zlib CINFO field (8..15). process() clamps every zlib and LZBC
/// request to kDeflateDictBits, so the declared window covers every
/// distance in the stream.
unsigned container_window_bits(const hw::HwConfig& cfg) noexcept {
  return std::clamp(cfg.dict_bits, 8u, kDeflateDictBits);
}

/// The one map from a decode failure to a status, called inside a catch of
/// std::exception. Damage in what the client sent is CORRUPT, and a size
/// cap it passes is TOO_LARGE. Anything else, such as an allocation failure
/// or an injected fault, is the server's own failure: INTERNAL.
Status decode_failure_status() noexcept {
  try {
    throw;
  } catch (const container::ContainerError& e) {
    return e.kind() == container::ContainerError::Kind::kTooLarge ? Status::kTooLarge
                                                                  : Status::kCorrupt;
  } catch (const core::RawTooLargeError&) {
    return Status::kTooLarge;
  } catch (const deflate::InflateBombError&) {
    return Status::kTooLarge;
  } catch (const core::DecodeError&) {
    return Status::kCorrupt;
  } catch (const deflate::InflateError&) {
    return Status::kCorrupt;
  } catch (...) {
    return Status::kInternal;
  }
}

/// The graceful-degradation payload: a container that carries @p input
/// without compression but still round-trips through the normal DECOMPRESS
/// path. zlib flavour = stored (BTYPE=00) blocks; raw flavour = an
/// all-literal token stream.
std::vector<std::uint8_t> fallback_container(std::span<const std::uint8_t> input,
                                             std::uint32_t adler, bool raw,
                                             const hw::HwConfig& cfg) {
  if (raw) {
    std::vector<core::Token> literals;
    literals.reserve(input.size());
    for (const std::uint8_t b : input) literals.push_back(core::Token::literal(b));
    return core::raw_container_pack(literals, cfg.dict_bits, input.size());
  }
  bits::BitWriter w;
  constexpr std::size_t kStoredMax = 65535;  // LEN is 16 bits
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kStoredMax, input.size() - off);
    deflate::write_stored_block(w, input.subspan(off, n), off + n == input.size());
    off += n;
  } while (off < input.size());
  return deflate::zlib_wrap(w.take(), adler, container_window_bits(cfg));
}

}  // namespace

unsigned default_workers() noexcept {
  return std::max(2u, std::thread::hardware_concurrency());
}

std::optional<container::TokenSource> match_source(MatchBackend backend,
                                                   const hw::HwConfig& cfg) {
  if (backend == MatchBackend::kHw) return cfg;
  if (backend != MatchBackend::kHashChain && backend != MatchBackend::kGreedy) return std::nullopt;
  core::MatchParams p;
  p.window_bits = cfg.dict_bits;
  p.hash = cfg.hash;
  p.max_chain = cfg.max_chain;
  p.nice_length = cfg.nice_length;
  p.max_lazy = cfg.max_insert;
  p.finder = backend == MatchBackend::kGreedy ? core::MatchFinderKind::kGreedy
                                              : core::MatchFinderKind::kHashChain;
  return p;
}

void ServiceConfig::validate() const {
  if (workers == 0) throw std::invalid_argument("ServiceConfig: zero workers");
  if (queue_depth == 0) throw std::invalid_argument("ServiceConfig: zero queue depth");
  if (block_bytes == 0) throw std::invalid_argument("ServiceConfig: zero block_bytes");
  if (block_bytes > kMaxPayload)
    throw std::invalid_argument("ServiceConfig: block_bytes exceeds the protocol cap");
  if (max_payload > kMaxPayload)
    throw std::invalid_argument("ServiceConfig: max_payload exceeds the protocol cap");
  if (!match_source(match_backend, hw))
    throw std::invalid_argument("ServiceConfig: unknown match_backend");
  hw.validate();
}

Service::Service(ServiceConfig config) : cfg_(std::move(config)) {
  cfg_.validate();
  if (cfg_.registry != nullptr) {
    registry_ = cfg_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  trace_ = cfg_.trace;
  events_ = cfg_.events;
  bind_metrics();
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i) spawn_worker_locked();
  }
  if (cfg_.request_timeout_ms != 0 || cfg_.hung_worker_ms != 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Service::~Service() { stop(); }

void Service::spawn_worker_locked() {
  auto worker = std::make_unique<Worker>();
  Worker* raw = worker.get();
  workers_.push_back(std::move(worker));
  raw->thread = std::thread([this, raw] { worker_loop(raw); });
}

void Service::stop() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (Worker* w : idle_) w->wake.notify_one();
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (w->thread.joinable()) threads.push_back(std::move(w->thread));
    }
  }
  for (auto& t : threads) t.join();

  // Rescue pass: jobs can only survive the drain when every worker died with
  // the watchdog disabled (kill faults). They still get a typed answer.
  std::vector<JobPtr> leftovers;
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (w->current) leftovers.push_back(std::move(w->current));
    }
    workers_.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (auto& j : queue_) leftovers.push_back(std::move(j));
    queue_.clear();
    queue_depth_g_->set(0);
  }
  if (events_ != nullptr && !leftovers.empty()) {
    events_->emit(obs::EventLevel::kWarn, "service", "drain_rescue",
                  {obs::EventLog::num("jobs", static_cast<std::int64_t>(leftovers.size()))});
  }
  for (auto& j : leftovers) {
    ResponseFrame resp;
    resp.status = Status::kInternal;
    deliver(j, std::move(resp));
  }
}

Service::RequestTrace Service::begin_trace(const RequestFrame& request) noexcept {
  RequestTrace rt;
  if (trace_ == nullptr) return rt;
  std::uint64_t id = request.trace_id;  // a client-sent id always wins
  if (id == 0) {
    if (cfg_.trace_sample == 0 ||
        trace_seq_.fetch_add(1, std::memory_order_relaxed) % cfg_.trace_sample != 0)
      return rt;
    id = obs::next_trace_id();
  }
  rt.ctx = obs::TraceContext{id, 0};
  rt.root_span = obs::next_span_id();
  rt.start_us = obs::TraceRing::now_us();
  rt.wall_us = obs::TraceRing::wall_now_us();
  return rt;
}

void Service::submit(RequestFrame&& request, Completion done) {
  const Opcode op = request.opcode;
  const auto t0 = std::chrono::steady_clock::now();
  const RequestTrace rt = begin_trace(request);

  if (op == Opcode::kPing || op == Opcode::kStats) {
    // Control plane: answered inline so health checks and observability keep
    // working while the data-plane queue is saturated.
    ResponseFrame resp;
    resp.id = request.id;
    resp.flags = request.flags;
    if (op == Opcode::kStats) {
      const std::string text = stats_json();
      resp.payload.assign(text.begin(), text.end());
    }
    finish(op, request, resp, t0, rt, done);
    return;
  }

  try {
    fault::point("server.queue.ingress");
  } catch (const std::exception&) {
    ResponseFrame resp;
    resp.id = request.id;
    resp.flags = request.flags;
    resp.status = Status::kInternal;
    finish(op, request, resp, t0, rt, done);
    return;
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->done = std::move(done);
  job->enqueued_at = t0;
  job->trace = rt;
  if (try_enqueue(job)) return;

  // Queue full (or service stopping): reject-with-BUSY, the software twin of
  // de-asserting `ready` on a valid/ready link. Counting happens in finish()
  // like every other response, so requests == ok + busy + errors holds.
  ResponseFrame busy;
  busy.id = job->request.id;
  busy.flags = job->request.flags;
  busy.status = Status::kBusy;
  finish(op, job->request, busy, t0, rt, job->done);
}

bool Service::try_enqueue(JobPtr job) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ || queue_.size() >= cfg_.queue_depth) return false;
    queue_.push_back(std::move(job));
    const auto depth = static_cast<std::int64_t>(queue_.size());
    queue_depth_g_->set(depth);
    if (depth > queue_high_water_g_->value()) queue_high_water_g_->set(depth);
    // Under the lock: a worker popped here cannot exit and be destroyed
    // before it is notified.
    if (!idle_.empty()) {
      idle_.back()->wake.notify_one();
      idle_.pop_back();
    }
  }
  return true;
}

bool Service::expired(const Job& job, std::chrono::steady_clock::time_point now) const noexcept {
  return cfg_.request_timeout_ms != 0 &&
         now - job.enqueued_at > std::chrono::milliseconds(cfg_.request_timeout_ms);
}

void Service::worker_loop(Worker* self) {
  for (;;) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      while (!stopping_ && !self->poisoned.load(std::memory_order_relaxed) && queue_.empty()) {
        idle_.push_back(self);
        self->wake.wait(lock);
        std::erase(idle_, self);  // still there only after a spurious wakeup
      }
      if (self->poisoned.load(std::memory_order_relaxed)) break;
      if (queue_.empty()) break;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
    }

    const auto now = std::chrono::steady_clock::now();
    queue_wait_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - job->enqueued_at)
            .count()));
    if (expired(*job, now)) {
      // Expired while queued and the reaper has not got to it yet: refuse to
      // burn worker time on a request the client has already given up on.
      ResponseFrame resp;
      resp.status = Status::kDeadlineExceeded;
      deliver(job, std::move(resp));
      continue;
    }

    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      self->current = job;
      self->busy_since = now;
    }

    ResponseFrame resp;
    bool killed = false;
    const bool internal = static_cast<bool>(job->block_work);
    workers_busy_g_->add(1);
    {
      // Re-root this thread under the request's trace so the opcode span —
      // and everything nested (block fan-out, store append/fsync, engine
      // work) — parents into the request tree. Inactive contexts are
      // harmless: spans still record, just flat.
      const obs::TraceScope trace_scope(
          obs::TraceContext{job->trace.ctx.trace_id, job->trace.root_span});
      obs::Span span(trace_, internal ? "container_block_job"
                                      : opcode_name(job->request.opcode));
      try {
        fault::point("server.worker.pre_compress");
        if (internal) {
          // Container sub-job: drains block claims from a parent request's
          // fan-out. No response — the parent assembles and answers; a
          // throw here just hands the claimed block back (ClaimGuard) for
          // the parent to re-run.
          job->block_work();
        } else {
          resp = process(job->request);
        }
      } catch (const fault::WorkerKill&) {
        killed = true;
      } catch (const std::exception&) {
        resp.status = Status::kInternal;
      }
      span.set_tag(killed ? "killed" : (internal ? "done" : status_name(resp.status)));
      span.set_args(static_cast<std::int64_t>(job->request.payload.size()),
                    static_cast<std::int64_t>(resp.payload.size()));
    }
    workers_busy_g_->add(-1);
    worker_busy_us_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - now)
            .count()));

    if (killed) {
      // Simulated crash: exit without answering and leave `current` set so
      // the watchdog can find the orphan, answer it, and respawn us.
      self->exited.store(true);
      return;
    }

    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      self->current.reset();
    }
    deliver(job, std::move(resp));
    if (self->poisoned.load(std::memory_order_relaxed)) break;
  }
  self->exited.store(true);
}

void Service::watchdog_loop() {
  using std::chrono::milliseconds;
  const std::uint32_t timeout = cfg_.request_timeout_ms;
  const std::uint32_t hung = cfg_.hung_worker_ms;
  std::uint32_t tick = std::numeric_limits<std::uint32_t>::max();
  if (timeout != 0) tick = std::min(tick, std::max(1u, timeout / 4));
  if (hung != 0) tick = std::min(tick, std::max(1u, hung / 4));

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      watchdog_cv_.wait_for(lock, milliseconds(tick), [&] { return stopping_; });
      if (stopping_) return;
    }
    const auto now = std::chrono::steady_clock::now();

    // 1) Reap queue entries that blew their deadline before dispatch.
    std::vector<JobPtr> reaped;
    if (timeout != 0) {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (expired(**it, now)) {
          reaped.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
    }
    for (auto& job : reaped) {
      ResponseFrame resp;
      resp.status = Status::kDeadlineExceeded;
      deliver(job, std::move(resp));
    }

    // 2) Sweep the pool: rescue orphans of dead workers, poison hung ones,
    //    respawn replacements, and join finished zombies. Deliveries happen
    //    after the lock is released.
    std::vector<std::pair<JobPtr, Status>> orphans;
    std::vector<std::thread> to_join;
    std::size_t dead_respawns = 0, hung_respawns = 0;
    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      // Iterate by index over the pre-sweep size: spawn_worker_locked()
      // push_backs into workers_ and would invalidate range-for iterators.
      std::size_t respawns = 0;
      const std::size_t count = workers_.size();
      for (std::size_t i = 0; i < count; ++i) {
        Worker* w = workers_[i].get();
        if (w->exited.load() && w->current) {
          // The worker thread died mid-request (simulated crash).
          orphans.emplace_back(std::move(w->current), Status::kInternal);
          w->current.reset();
          respawns_c_->add(1);
          ++respawns;
          ++dead_respawns;
        } else if (hung != 0 && !w->exited.load() && !w->poisoned.load() && w->current &&
                   now - w->busy_since > milliseconds(hung)) {
          // Stuck past the threshold: answer its request now, poison it so it
          // exits when (if) it ever finishes, and backfill the pool slot.
          orphans.emplace_back(w->current, Status::kDeadlineExceeded);
          w->poisoned.store(true);
          respawns_c_->add(1);
          ++respawns;
          ++hung_respawns;
        }
        if (w->exited.load() && !w->current && w->thread.joinable()) {
          to_join.push_back(std::move(w->thread));
        }
      }
      std::erase_if(workers_, [](const std::unique_ptr<Worker>& w) {
        return w->exited.load() && !w->current && !w->thread.joinable();
      });
      for (std::size_t i = 0; i < respawns; ++i) spawn_worker_locked();
    }
    for (auto& t : to_join) t.join();
    if (events_ != nullptr) {
      if (dead_respawns != 0)
        events_->emit(obs::EventLevel::kError, "service", "worker_respawned",
                      {obs::EventLog::str("reason", "dead"),
                       obs::EventLog::num("count", static_cast<std::int64_t>(dead_respawns))});
      if (hung_respawns != 0)
        events_->emit(obs::EventLevel::kWarn, "service", "worker_respawned",
                      {obs::EventLog::str("reason", "hung"),
                       obs::EventLog::num("count", static_cast<std::int64_t>(hung_respawns))});
    }
    for (auto& [job, status] : orphans) {
      ResponseFrame resp;
      resp.status = status;
      deliver(job, std::move(resp));
    }
  }
}

void Service::deliver(const JobPtr& job, ResponseFrame&& response) {
  bool expected = false;
  if (!job->answered.compare_exchange_strong(expected, true)) return;  // lost the race
  // Internal container sub-jobs answer nobody: the parent request owns the
  // client response, and the fan-out's claim pool already re-runs any block
  // a reaped/orphaned helper left behind. Dropping here keeps the per-opcode
  // invariant (requests == ok + busy + errors) about *client* requests only.
  if (job->block_work) return;
  response.id = job->request.id;
  response.flags = job->request.flags;
  if (response.status == Status::kDeadlineExceeded) deadline_c_->add(1);
  finish(job->request.opcode, job->request, response, job->enqueued_at, job->trace,
         job->done);
}

ResponseFrame Service::process(RequestFrame& request) {
  if (request.payload.size() > cfg_.max_payload) {
    ResponseFrame resp;
    resp.status = Status::kTooLarge;
    return resp;
  }

  // Resolve the preset: 0 = service default, 1..N = estimator preset ladder.
  const std::uint8_t preset_id = preset_of_flags(request.flags);
  hw::HwConfig cfg = cfg_.hw;
  if (preset_id != 0) {
    const auto presets = est::standard_presets();
    if (preset_id > presets.size()) {
      ResponseFrame resp;
      resp.status = Status::kUnsupported;
      return resp;
    }
    cfg = presets[preset_id - 1].config;
  }
  // zlib and LZBC carry Deflate, whose window is 32 KiB; only the raw LZS1
  // container keeps a larger dictionary.
  const bool raw = (request.flags & kFlagRawContainer) != 0;
  if (request.opcode == Opcode::kCompressBlocked || !raw)
    cfg.dict_bits = std::min(cfg.dict_bits, kDeflateDictBits);

  if (request.opcode == Opcode::kLogAppend) return do_log_append(request);
  if (request.opcode == Opcode::kLogRead) return do_log_read(request);
  if (request.opcode == Opcode::kScrub) return do_scrub(request);
  if (request.opcode == Opcode::kVerify) return do_verify(request);
  if (request.opcode == Opcode::kDecompress) return do_decompress(request);
  if (request.opcode == Opcode::kCompressBlocked) return do_compress_blocked(request, cfg);
  return do_compress(request, cfg);
}

bool Service::census_due() noexcept {
  return census_seq_.fetch_add(1, std::memory_order_relaxed) % kCensusEvery == 0;
}

ResponseFrame Service::do_log_append(const RequestFrame& request) {
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  try {
    const std::uint64_t seq = store_->append(request.payload);
    resp.adler = checksum::adler32(request.payload);
    le::put64(resp.payload, seq);
  } catch (const store::IoError&) {
    // Disk failure: the record was NOT appended (LogStore's contract) — the
    // client may retry without creating a duplicate.
    resp.status = Status::kInternal;
  } catch (const store::StoreError&) {
    resp.status = Status::kBadRequest;
  }
  return resp;
}

ResponseFrame Service::do_log_read(const RequestFrame& request) {
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  if (request.payload.size() != 8) {
    resp.status = Status::kBadRequest;
    return resp;
  }
  const std::uint64_t seq = le::get64(request.payload.data());
  try {
    resp.payload = store_->read(seq);
    resp.adler = checksum::adler32(resp.payload);
  } catch (const store::StoreError& e) {
    resp.status = e.kind() == store::StoreError::Kind::kNotFound ? Status::kBadRequest
                                                                 : Status::kCorrupt;
  } catch (const store::IoError&) {
    resp.status = Status::kInternal;
  }
  return resp;
}

ResponseFrame Service::do_scrub(const RequestFrame& request) {
  // Online integrity walk. Corruption is *data* here, not a failure: a scrub
  // that finds damage quarantines it in the store and reports the tally with
  // OK — the server must stay useful while the archive degrades. Only a
  // malformed request (or no store) earns an error status.
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  std::vector<std::uint64_t> ids;
  if (request.payload.empty()) {
    ids = store_->sealed_segment_ids();
  } else if (request.payload.size() == 8) {
    ids.push_back(le::get64(request.payload.data()));
  } else {
    resp.status = Status::kBadRequest;
    return resp;
  }
  std::uint64_t segments = 0, records = 0, bytes = 0, errors = 0, new_gaps = 0, skipped = 0;
  for (const std::uint64_t id : ids) {
    try {
      const store::ScrubReport report = store_->scrub_segment(id);
      ++segments;
      records += report.records;
      bytes += report.bytes;
      errors += report.errors;
      new_gaps += report.new_gaps;
    } catch (const store::StoreError& e) {
      if (request.payload.size() == 8) {
        // A directly named segment that is missing or is the active tail is
        // the client's mistake, not archive damage.
        resp.status = Status::kBadRequest;
        return resp;
      }
      // Walking "all": retention may have deleted the segment between the id
      // snapshot and the scrub; the walk just moves on.
      (void)e;
      ++skipped;
    }
  }
  std::string json = "{\"segments\":" + std::to_string(segments);
  json += ",\"records\":" + std::to_string(records);
  json += ",\"bytes\":" + std::to_string(bytes);
  json += ",\"errors\":" + std::to_string(errors);
  json += ",\"new_gaps\":" + std::to_string(new_gaps);
  json += ",\"skipped\":" + std::to_string(skipped);
  json += ",\"clean\":";
  json += (errors == 0 && new_gaps == 0) ? "true" : "false";
  json += "}";
  resp.payload.assign(json.begin(), json.end());
  resp.adler = checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_verify(const RequestFrame& request) {
  // Checksum-only verification: same decode paths as DECOMPRESS, but the
  // reconstructed bytes never travel back — only a JSON verdict does. Like
  // SCRUB, damage is reported with OK; error statuses are reserved for
  // malformed requests and policy limits (decompression bombs).
  ResponseFrame resp;

  if ((request.flags & kFlagVerifyStore) != 0) {
    // Stored-record-range mode: payload = two LE u64 (first sequence, count).
    if (store_ == nullptr) {
      resp.status = Status::kUnsupported;
      return resp;
    }
    if (request.payload.size() != 16) {
      resp.status = Status::kBadRequest;
      return resp;
    }
    const std::uint64_t first = le::get64(request.payload.data());
    const std::uint64_t count = le::get64(request.payload.data() + 8);
    constexpr std::uint64_t kMaxVerifyRecords = 65536;
    if (count == 0 || count > kMaxVerifyRecords) {
      resp.status = Status::kBadRequest;
      return resp;
    }
    const std::vector<store::RecordVerdict> verdicts = store_->verify_range(first, count);
    std::uint64_t ok = 0, gap = 0, not_found = 0, corrupt = 0;
    std::string marks;
    marks.reserve(verdicts.size());
    for (const store::RecordVerdict v : verdicts) {
      switch (v) {
        case store::RecordVerdict::kOk: ++ok; marks.push_back('.'); break;
        case store::RecordVerdict::kGap: ++gap; marks.push_back('g'); break;
        case store::RecordVerdict::kNotFound: ++not_found; marks.push_back('?'); break;
        case store::RecordVerdict::kCorrupt: ++corrupt; marks.push_back('X'); break;
      }
    }
    std::string json = "{\"mode\":\"store\",\"first\":" + std::to_string(first);
    json += ",\"count\":" + std::to_string(count);
    json += ",\"ok\":" + std::to_string(ok);
    json += ",\"gap\":" + std::to_string(gap);
    json += ",\"not_found\":" + std::to_string(not_found);
    json += ",\"corrupt\":" + std::to_string(corrupt);
    json += ",\"clean\":";
    json += (corrupt == 0 && gap == 0) ? "true" : "false";
    json += ",\"verdicts\":\"" + marks + "\"}";
    resp.payload.assign(json.begin(), json.end());
    resp.adler = checksum::adler32(resp.payload);
    return resp;
  }

  // Container mode: the payload is an LZBC / zlib / raw-LZS1 container.
  if (request.payload.empty()) {
    resp.status = Status::kBadRequest;
    return resp;
  }
  const char* format = "zlib";
  std::uint64_t blocks = 1, corrupt_blocks = 0, raw_bytes = 0;
  std::uint32_t content_adler = 0;
  bool parse_error = false;
  std::string marks;
  if (container::looks_like_container(request.payload)) {
    format = "lzbc";
    // Per-block verdicts: the codec's driver with a runner that decodes the
    // blocks in order and notes each one, past failures — VERIFY maps the
    // damage where DECOMPRESS just fails. A runner never called means the
    // parse failed.
    blocks = 0;
    bool parsed = false;
    const container::BlockRunner verdicts = [&](std::size_t n, const container::BlockFn& block) {
      parsed = true;
      blocks = n;
      for (std::size_t i = 0; i < n; ++i) {
        const container::BlockOutcome outcome = block(i);
        raw_bytes += outcome.raw_len;
        corrupt_blocks += outcome.ok ? 0 : 1;
        marks.push_back(outcome.ok ? '.' : 'X');
      }
    };
    try {
      content_adler = checksum::adler32(
          container::block_decompress(request.payload, cfg_.max_payload, nullptr, verdicts));
    } catch (const std::exception&) {
      // Past the parse, a decode failure is a damaged block the runner
      // already counted; a block stream that outgrows its raw_len is one.
      const Status status = decode_failure_status();
      if (status == Status::kInternal || (!parsed && status == Status::kTooLarge)) {
        resp.status = status;
        return resp;
      }
      parse_error = !parsed;
    }
  } else {
    const bool raw = (request.flags & kFlagRawContainer) != 0;
    format = raw ? "raw" : "zlib";
    try {
      const std::vector<std::uint8_t> output =
          raw ? core::raw_container_unpack(request.payload, cfg_.max_payload)
              : deflate::zlib_decompress(request.payload, cfg_.max_payload);
      raw_bytes = output.size();
      content_adler = checksum::adler32(output);
      marks.push_back('.');
    } catch (const std::exception&) {
      const Status status = decode_failure_status();
      if (status != Status::kCorrupt) {
        resp.status = status;
        return resp;
      }
      corrupt_blocks = 1;
      marks.push_back('X');
    }
  }
  const bool clean = !parse_error && corrupt_blocks == 0;
  std::string json = "{\"mode\":\"container\",\"format\":\"";
  json += format;
  json += "\",\"blocks\":" + std::to_string(blocks);
  json += ",\"corrupt\":" + std::to_string(corrupt_blocks);
  json += ",\"parse_error\":";
  json += parse_error ? "true" : "false";
  json += ",\"raw_bytes\":" + std::to_string(raw_bytes);
  json += ",\"clean\":";
  json += clean ? "true" : "false";
  json += ",\"verdicts\":\"" + marks + "\"}";
  resp.payload.assign(json.begin(), json.end());
  // The adler field keeps the DECOMPRESS convention — checksum of the
  // reconstructed content — so a clean VERIFY lets the client match the
  // container against a known original without any payload coming back.
  resp.adler = clean ? content_adler : checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_compress(const RequestFrame& request, const hw::HwConfig& cfg) {
  const std::span<const std::uint8_t> input(request.payload);
  ResponseFrame resp;

  const bool raw = (request.flags & kFlagRawContainer) != 0;

  // Resolve the match source: flags bits 3..5 pin a backend per request;
  // selector 0 takes the service's configured one (docs/MATCHFINDER.md).
  const std::uint8_t selector = matchfinder_of_flags(request.flags);
  const auto source = match_source(
      selector == kMatchFinderPolicy ? cfg_.match_backend : static_cast<MatchBackend>(selector),
      cfg);
  if (!source) {
    resp.adler = checksum::adler32(input);
    resp.status = Status::kUnsupported;
    return resp;
  }
  const auto* sw = std::get_if<core::MatchParams>(&*source);

  // The hw backend takes the functional twin's tokens; a census sample runs
  // the cycle model instead, for the same tokens plus its cycle census. A
  // zlib response of any backend is one stream of parts, each primed with
  // the window before it (container::deflate_in_parts), which fan across
  // the pool through run_blocks like COMPRESS_BLOCKED's blocks, with one
  // census per hw part. Each part checksums its own slice, so the payload is
  // not hashed on this thread before the fan-out. Raw LZS1 holds one token
  // stream, so it is matched in one piece.
  const bool sampled = sw == nullptr && census_due();
  std::vector<hw::CycleStats> census(sampled ? 1 : 0);
  core::FinderStats finder;
  try {
    fault::point("server.worker.compress");
    if (raw) {
      resp.adler = checksum::adler32(input);
      resp.payload = core::raw_container_pack(
          container::source_tokens(*source, input, 0, sampled ? census.data() : nullptr, &finder),
          cfg.dict_bits, input.size());
    } else {
      const container::BlockRunner run =
          std::bind_front(&Service::run_blocks, this, BlockOp::kCompress);
      auto parts = container::deflate_in_parts(*source, input, run, sampled ? &census : nullptr);
      finder = parts.finder;
      resp.adler = parts.adler;
      resp.payload = deflate::zlib_wrap_in_place(std::move(parts.bytes), parts.adler,
                                                 container_window_bits(cfg));
    }
  } catch (const std::exception&) {
    // Graceful degradation: the match path failed, but a stored container
    // always round-trips — COMPRESS degrades instead of erroring. No census
    // export: a run that threw has no complete cycle accounting.
    resp.adler = checksum::adler32(input);
    resp.payload = fallback_container(input, resp.adler, raw, cfg);
    fallbacks_c_->add(1);
    return resp;
  }
  // A sampled model run completed: fold its per-FSM-state cycle census (the
  // paper's fig. 5 categories) into the registry, once per part. The twin
  // has no cycles; a software backend counts in the matchfinder_* counters,
  // its probes summed over the parts.
  for (const hw::CycleStats& part : census) hw::export_cycle_stats(*registry_, part);
  if (sw != nullptr) {
    const FinderInstruments& fm = mf_[static_cast<std::size_t>(sw->finder)];
    fm.requests->add(1);
    fm.bytes_in->add(input.size());
    fm.probes->add(finder.probes);
    fm.compare_bytes->add(finder.compare_bytes);
  }

  // Ratio guard: a payload larger than its input degrades to the stored form
  // when that is actually smaller (GPULZ-style fallback).
  if (!input.empty() && resp.payload.size() > input.size()) {
    auto stored = fallback_container(input, resp.adler, raw, cfg);
    if (stored.size() < resp.payload.size()) {
      resp.payload = std::move(stored);
      fallbacks_c_->add(1);
    }
  }
  return resp;
}

ResponseFrame Service::do_decompress(const RequestFrame& request) {
  // LZBC payloads take the symmetric block-parallel path; everything else
  // is a single-shot inflate. The magics are disjoint ("LZBC" vs "LZS1" vs
  // a zlib CMF byte), so sniffing cannot misroute a valid container.
  if (container::looks_like_container(request.payload))
    return do_decompress_blocked(request);
  ResponseFrame resp;
  const bool raw = (request.flags & kFlagRawContainer) != 0;
  try {
    // zlib_decompress has verified the trailer's Adler-32 against the
    // output, so the response reuses it instead of hashing again.
    // Both decoders stop at max_payload: zlib_decompress as an output cap,
    // raw_container_unpack on the declared size before any token runs.
    resp.payload = raw ? core::raw_container_unpack(request.payload, cfg_.max_payload)
                       : deflate::zlib_decompress(request.payload, cfg_.max_payload, &resp.adler);
  } catch (const std::exception&) {
    resp.status = decode_failure_status();
    return resp;
  }
  if (raw) resp.adler = checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_compress_blocked(const RequestFrame& request, const hw::HwConfig& cfg) {
  const std::span<const std::uint8_t> input(request.payload);
  ResponseFrame resp;
  resp.adler = checksum::adler32(input);
  if ((request.flags & kFlagRawContainer) != 0) {
    // LZBC block payloads are deflate/stored; the raw-LZSS container has no
    // block form. Typed reject instead of a silently different container.
    resp.status = Status::kBadRequest;
    return resp;
  }

  // A census sample runs every block on the cycle model; otherwise the
  // blocks take the functional twin's tokens. A bad block degrades to a
  // stored record, so it can only cost ratio, never the request.
  const bool sampled = census_due();
  container::EncodeReport report;
  std::vector<hw::CycleStats> census;
  const container::BlockRunner run =
      std::bind_front(&Service::run_blocks, this, BlockOp::kCompress);
  resp.payload = container::block_compress(input, {cfg_.block_bytes, cfg}, &report, run,
                                           sampled ? &census : nullptr);
  // A block whose model run threw left its slot empty: no cycle accounting.
  for (const hw::CycleStats& block : census)
    if (block.total_cycles != 0) hw::export_cycle_stats(*registry_, block);
  block_fallbacks_c_->add(report.stored_blocks);
  return resp;
}

ResponseFrame Service::do_decompress_blocked(const RequestFrame& request) {
  ResponseFrame resp;
  try {
    // parse caps raw_total by max_payload before any block work: the
    // superframe-level bomb guard.
    const container::BlockRunner run =
        std::bind_front(&Service::run_blocks, this, BlockOp::kDecompress);
    resp.payload = container::block_decompress(request.payload, cfg_.max_payload, nullptr, run);
  } catch (const deflate::InflateBombError&) {
    // Inside a block, a stream that inflates past its raw_len is damage to
    // that block (parse already held raw_total to the cap). The whole
    // request fails — never a partial-success payload.
    resp.status = Status::kCorrupt;
    return resp;
  } catch (const std::exception&) {
    resp.status = decode_failure_status();
    return resp;
  }
  resp.adler = checksum::adler32(resp.payload);
  return resp;
}

void Service::run_blocks(BlockOp op, std::size_t blocks, const container::BlockFn& block) {
  const bool compress = op == BlockOp::kCompress;
  obs::Counter* const blocks_c = blocks_c_[static_cast<std::size_t>(op)];
  obs::Histogram* const latency_us = block_lat_us_[static_cast<std::size_t>(op)];
  // Runs on the parent worker and on helper workers concurrently. The
  // parent's trace context is captured here (under the opcode span) and
  // re-installed on whichever thread runs the block, so helper-side spans
  // join the request tree.
  const obs::TraceContext fanout_ctx = obs::current_trace();
  const container::BlockWork work = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    const obs::TraceScope trace_scope(fanout_ctx);
    obs::Span span(trace_, "container_block");
    container::BlockOutcome outcome;
    {
      obs::Span eng(trace_, compress ? "engine.encode" : "engine.decode");
      outcome = block(i);
      eng.set_args(static_cast<std::int64_t>(outcome.raw_len));
    }
    blocks_c->add(1);
    latency_us->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    span.set_tag(!outcome.ok ? "corrupt" : compress ? "compress" : "decompress");
    span.set_args(static_cast<std::int64_t>(i), static_cast<std::int64_t>(outcome.raw_len));
  };

  struct WaiterGuard {
    obs::Gauge* g;
    explicit WaiterGuard(obs::Gauge* gauge) : g(gauge) { g->add(1); }
    ~WaiterGuard() { g->add(-1); }
  } waiter(reassembly_waiters_g_);
  const container::FanoutReport rep = container::run_fanout(
      blocks, cfg_.workers > 0 ? cfg_.workers - 1 : 0, work,
      [this](std::function<void()> task) {
        // Same bounded queue as client requests: a full queue refuses the
        // helper (per-block BUSY) and the parent absorbs the block itself.
        auto job = std::make_shared<Job>();
        job->block_work = std::move(task);
        job->enqueued_at = std::chrono::steady_clock::now();
        return try_enqueue(std::move(job));
      });
  helper_blocks_c_->add(rep.helper_blocks);
  helper_rejects_c_->add(rep.helpers_rejected);
  reassembly_wait_us_->record(rep.reassembly_wait_us);
}

void Service::bind_metrics() {
  obs::Registry& r = *registry_;
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const char* op = opcode_name(static_cast<Opcode>(i));
    OpInstruments& m = opm_[i];
    m.requests = &r.counter("server_requests_total", {{"opcode", op}});
    m.ok = &r.counter("server_responses_total", {{"opcode", op}, {"status", "ok"}});
    m.busy = &r.counter("server_responses_total", {{"opcode", op}, {"status", "busy"}});
    m.errors = &r.counter("server_responses_total", {{"opcode", op}, {"status", "error"}});
    m.bytes_in = &r.counter("server_bytes_in_total", {{"opcode", op}});
    m.bytes_out = &r.counter("server_bytes_out_total", {{"opcode", op}});
    m.latency_us = &r.histogram("server_latency_us", {{"opcode", op}});
  }
  for (std::size_t i = 0; i < mf_.size(); ++i) {
    const char* backend = core::finder_name(static_cast<core::MatchFinderKind>(i));
    FinderInstruments& m = mf_[i];
    m.requests = &r.counter("matchfinder_requests_total", {{"backend", backend}});
    m.bytes_in = &r.counter("matchfinder_bytes_in_total", {{"backend", backend}});
    m.probes = &r.counter("matchfinder_probes_total", {{"backend", backend}});
    m.compare_bytes = &r.counter("matchfinder_compare_bytes_total", {{"backend", backend}});
  }
  queue_wait_us_ = &r.histogram("server_queue_wait_us");
  queue_depth_g_ = &r.gauge("server_queue_depth");
  queue_high_water_g_ = &r.gauge("server_queue_high_water");
  workers_busy_g_ = &r.gauge("server_workers_busy");
  worker_busy_us_ = &r.counter("server_worker_busy_us_total");
  deadline_c_ = &r.counter("server_deadline_exceeded_total");
  fallbacks_c_ = &r.counter("server_fallbacks_total");
  respawns_c_ = &r.counter("server_workers_respawned_total");
  for (const BlockOp op : {BlockOp::kCompress, BlockOp::kDecompress}) {
    const char* name = op == BlockOp::kCompress ? "compress" : "decompress";
    blocks_c_[static_cast<std::size_t>(op)] = &r.counter("container_blocks_total", {{"op", name}});
    block_lat_us_[static_cast<std::size_t>(op)] =
        &r.histogram("container_block_latency_us", {{"op", name}});
  }
  reassembly_waiters_g_ = &r.gauge("container_reassembly_waiters");
  reassembly_wait_us_ = &r.histogram("container_reassembly_wait_us");
  helper_blocks_c_ = &r.counter("container_helper_blocks_total");
  helper_rejects_c_ = &r.counter("container_helper_rejects_total");
  block_fallbacks_c_ = &r.counter("container_block_fallbacks_total");
  // Pull-style mirror of the fault-injection trigger table: scraped at
  // snapshot time, so disarmed points cost nothing on the request path.
  // Capture-less on purpose — the collector may outlive this service when
  // the registry is shared.
  r.add_collector([](obs::Snapshot& snap) {
    for (const char* point : fault::all_points()) {
      snap.add_counter_sample("fault_point_visits_total", {{"point", point}},
                              fault::visits(point));
      snap.add_counter_sample("fault_point_triggers_total", {{"point", point}},
                              fault::triggers(point));
    }
  });
}

void Service::finish(Opcode op, const RequestFrame& request, ResponseFrame& response,
                     std::chrono::steady_clock::time_point t0, const RequestTrace& rt,
                     const Completion& done) {
  try {
    fault::point("server.response.egress");
  } catch (...) {
    // Even a failing egress path must answer: degrade to a typed error.
    response.payload.clear();
    response.status = Status::kInternal;
  }
  // The single classification point: every response — inline reject, worker,
  // watchdog, or drain rescue — lands here exactly once, so per opcode
  // requests == ok + busy + errors always holds. BUSY rejects never accepted
  // the payload and never ran, so they contribute no bytes and no latency
  // sample.
  const OpInstruments& m = opm_[static_cast<std::size_t>(op)];
  m.requests->add(1);
  if (response.status == Status::kOk) {
    m.ok->add(1);
  } else if (response.status == Status::kBusy) {
    m.busy->add(1);
  } else {
    m.errors->add(1);
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const std::uint64_t latency_us = static_cast<std::uint64_t>(std::max<long long>(micros, 0));
  if (response.status != Status::kBusy) {
    m.bytes_in->add(request.payload.size());
    m.bytes_out->add(response.payload.size());
    m.latency_us->record(latency_us);
  }
  // Echo the trace id so the client can print (and fetch) its own trace;
  // encode_response only puts it on the wire when the echoed flags carry
  // kFlagTraced, so untraced peers see byte-identical responses.
  response.trace_id = rt.ctx.active() ? rt.ctx.trace_id : request.trace_id;
  if (trace_ != nullptr && rt.ctx.active()) {
    // Close the request-root span. Child spans (opcode, block fan-out,
    // store, engine) are recorded by their own destructors before the
    // response is delivered, so the tree is complete in the ring by now.
    obs::TraceEvent root;
    root.trace_id = rt.ctx.trace_id;
    root.span_id = rt.root_span;
    root.parent_id = 0;
    root.start_us = rt.start_us;
    root.end_us = obs::TraceRing::now_us();
    root.wall_us = rt.wall_us;
    root.tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::snprintf(root.name, sizeof(root.name), "request.%s", opcode_name(op));
    std::snprintf(root.tag, sizeof(root.tag), "%s", status_name(response.status));
    root.a0 = static_cast<std::int64_t>(request.payload.size());
    root.a1 = static_cast<std::int64_t>(response.payload.size());
    trace_->record(root);
    if (response.status != Status::kBusy) {
      m.latency_us->record_exemplar(latency_us, rt.ctx.trace_id);
      // Flight recorder: copy the whole tree of a slow request into the
      // keep-ring before the main ring's churn can overwrite it.
      if (cfg_.slow_trace != nullptr && cfg_.slow_trace_us != 0 &&
          latency_us >= cfg_.slow_trace_us) {
        trace_->copy_trace(rt.ctx.trace_id, *cfg_.slow_trace);
        if (events_ != nullptr) {
          char idbuf[20];
          std::snprintf(idbuf, sizeof(idbuf), "%016llx",
                        static_cast<unsigned long long>(rt.ctx.trace_id));
          events_->emit(obs::EventLevel::kWarn, "service", "slow_request",
                        {obs::EventLog::str("opcode", opcode_name(op)),
                         obs::EventLog::str("trace_id", idbuf),
                         obs::EventLog::num("latency_us",
                                            static_cast<std::int64_t>(latency_us))});
        }
      }
    }
  }
  done(std::move(response));
}

std::string Service::stats_json() const {
  return "{\"metrics\":" + registry_->snapshot().metrics_json_array() + "}";
}

}  // namespace lzss::server
