// Request-scoped trace spans recorded into a fixed-size ring.
//
// The hw model already has cycle-exact tracing (hw/trace.hpp dumps VCD); the
// service layer needs the wall-clock analogue: who processed which request,
// when, for how long, and with what outcome. A TraceRing keeps the most
// recent N completed spans in a preallocated ring — recording is a mutex'd
// struct copy, no allocation — and exports them as JSONL (one event object
// per line, Chrome-trace-like fields) for offline digestion or a live
// `GET /trace` scrape.
//
// Spans are RAII: construct at the start of the unit of work, annotate with
// a0/a1/tag, and the destructor stamps the end time and records. A null ring
// pointer disables a span entirely, so call sites stay unconditional.
//
// Spans carry trace/span/parent ids so one request yields a hierarchical
// tree. Propagation is via a thread-local TraceContext: a Span reads the
// current context for its trace id and parent, then installs itself as the
// parent for anything nested on the same thread. Crossing a thread (queue
// hand-off, block fan-out) means capturing `current_trace()` on the near
// side and installing it with a TraceScope on the far side.
//
// Timebases: durations are measured on the steady clock (`start_us`/`end_us`
// are microseconds since process start) so spans survive NTP steps; each
// event additionally records the wall-clock epoch time of its start
// (`wall_us`) so traces can be correlated with external logs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lzss::obs {

/// One completed span. Name/tag are fixed-size char arrays so the ring is a
/// single flat allocation and recording never touches the heap.
struct TraceEvent {
  std::uint64_t trace_id = 0;   ///< request tree id; 0 = untraced (flat span)
  std::uint64_t span_id = 0;    ///< unique per span within the process
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  std::uint64_t start_us = 0;   ///< microseconds since process start (steady)
  std::uint64_t end_us = 0;
  std::uint64_t wall_us = 0;    ///< wall-clock epoch microseconds at start
  std::uint32_t tid = 0;        ///< hashed thread id
  char name[32] = {};           ///< what ran, e.g. "request.compress_blocked"
  char tag[16] = {};            ///< outcome, e.g. a status name
  std::int64_t a0 = 0;          ///< span-defined args (bytes in, sequence, ...)
  std::int64_t a1 = 0;
};

/// The propagated half of a span: which trace the current thread is working
/// for and which span is the parent of anything started now. trace_id == 0
/// means "not inside a traced request" — spans still record, just flat.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent for spans opened under this context
  [[nodiscard]] constexpr bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context (what a new Span would parent under).
[[nodiscard]] TraceContext current_trace() noexcept;

/// Fresh nonzero ids. Trace ids mix a per-boot seed so ids from different
/// runs don't collide in aggregated logs; span ids are a cheap counter.
[[nodiscard]] std::uint64_t next_trace_id() noexcept;
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// RAII: installs `ctx` as the calling thread's current context, restores
/// the previous one on destruction. Use at thread hand-off boundaries
/// (worker dequeue, block fan-out) to re-root nested spans.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 4096);

  void record(const TraceEvent& event);

  /// Events oldest-to-newest. Total recorded counts overwrites, so
  /// `recorded() - events().size()` is how many the ring has forgotten.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Events belonging to one trace, oldest-to-newest.
  [[nodiscard]] std::vector<TraceEvent> events_for(std::uint64_t trace_id) const;

  /// Copy every event of `trace_id` into `dst` (the slow-request keep-ring).
  /// Returns the number of events copied.
  std::size_t copy_trace(std::uint64_t trace_id, TraceRing& dst) const;

  /// One JSON object per line:
  /// {"name":"compress","trace_id":"b0b1..","span_id":"..","parent_id":"..",
  ///  "start_us":..,"dur_us":..,"wall_us":..,"tid":..,"tag":"OK","a0":..,"a1":..}
  /// trace/span/parent ids are 16-digit zero-padded hex strings (0 = absent).
  [[nodiscard]] std::string to_jsonl() const;

  /// Microseconds since process start on the steady clock (the spans'
  /// duration timebase).
  [[nodiscard]] static std::uint64_t now_us() noexcept;

  /// Wall-clock epoch microseconds (the spans' correlation timebase).
  [[nodiscard]] static std::uint64_t wall_now_us() noexcept;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;  ///< next slot = recorded_ % capacity
};

/// Render one event as a JSONL line (shared by to_jsonl and the HTTP plane).
void append_event_jsonl(std::string& out, const TraceEvent& e);

/// RAII span: stamps start at construction, records into the ring (when
/// non-null) at destruction. Reads the thread-local context for trace id and
/// parent, and installs itself as the current parent until destruction.
class Span {
 public:
  Span(TraceRing* ring, const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_tag(const char* tag) noexcept;
  void set_args(std::int64_t a0, std::int64_t a1 = 0) noexcept { a0_ = a0; a1_ = a1; }

  [[nodiscard]] std::uint64_t span_id() const noexcept { return span_id_; }

 private:
  TraceRing* ring_;
  const char* name_;
  const char* tag_ = "";
  std::int64_t a0_ = 0;
  std::int64_t a1_ = 0;
  std::uint64_t start_us_ = 0;
  std::uint64_t wall_us_ = 0;
  std::uint64_t span_id_ = 0;
  TraceContext prev_;  ///< restored on destruction (only when ring_ != null)
};

}  // namespace lzss::obs
