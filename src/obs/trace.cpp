#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

namespace lzss::obs {

namespace {

void copy_fixed(char* dst, std::size_t cap, const char* src) noexcept {
  std::size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

std::uint32_t thread_tag() noexcept {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

thread_local TraceContext t_current{};

/// splitmix64: cheap, well-distributed, never maps distinct inputs to the
/// same output — perfect for turning a counter into opaque-looking ids.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t boot_seed() noexcept {
  static const std::uint64_t seed = splitmix64(static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  return seed;
}

}  // namespace

TraceContext current_trace() noexcept { return t_current; }

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> seq{1};
  const std::uint64_t id =
      splitmix64(boot_seed() ^ seq.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;  // 0 is the "untraced" sentinel
}

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> seq{1};
  return seq.fetch_add(1, std::memory_order_relaxed);
}

TraceScope::TraceScope(TraceContext ctx) noexcept : prev_(t_current) {
  t_current = ctx;
}

TraceScope::~TraceScope() { t_current = prev_; }

TraceRing::TraceRing(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

std::uint64_t TraceRing::now_us() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

std::uint64_t TraceRing::wall_now_us() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

void TraceRing::record(const TraceEvent& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_[recorded_ % ring_.size()] = event;
  ++recorded_;
}

std::vector<TraceEvent> TraceRing::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  const std::size_t n = recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                                 : ring_.size();
  out.reserve(n);
  const std::uint64_t first = recorded_ - n;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(first + i) % ring_.size()]);
  return out;
}

std::vector<TraceEvent> TraceRing::events_for(std::uint64_t trace_id) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events())
    if (e.trace_id == trace_id) out.push_back(e);
  return out;
}

std::size_t TraceRing::copy_trace(std::uint64_t trace_id, TraceRing& dst) const {
  std::size_t copied = 0;
  for (const TraceEvent& e : events_for(trace_id)) {
    dst.record(e);
    ++copied;
  }
  return copied;
}

std::uint64_t TraceRing::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

void append_event_jsonl(std::string& out, const TraceEvent& e) {
  char line[384];
  std::snprintf(line, sizeof(line),
                "{\"name\":\"%s\",\"trace_id\":\"%016" PRIx64 "\",\"span_id\":\"%016" PRIx64
                "\",\"parent_id\":\"%016" PRIx64 "\",\"start_us\":%" PRIu64
                ",\"dur_us\":%" PRIu64 ",\"wall_us\":%" PRIu64
                ",\"tid\":%u,\"tag\":\"%s\",\"a0\":%" PRId64 ",\"a1\":%" PRId64 "}\n",
                e.name, e.trace_id, e.span_id, e.parent_id, e.start_us,
                e.end_us - e.start_us, e.wall_us, e.tid, e.tag, e.a0, e.a1);
  out += line;
}

std::string TraceRing::to_jsonl() const {
  std::string out;
  for (const TraceEvent& e : events()) append_event_jsonl(out, e);
  return out;
}

Span::Span(TraceRing* ring, const char* name) noexcept : ring_(ring), name_(name) {
  if (ring_ == nullptr) return;
  start_us_ = TraceRing::now_us();
  wall_us_ = TraceRing::wall_now_us();
  span_id_ = next_span_id();
  prev_ = t_current;
  t_current = TraceContext{prev_.trace_id, span_id_};
}

void Span::set_tag(const char* tag) noexcept { tag_ = tag != nullptr ? tag : ""; }

Span::~Span() {
  if (ring_ == nullptr) return;
  t_current = prev_;
  TraceEvent e;
  e.trace_id = prev_.trace_id;
  e.span_id = span_id_;
  e.parent_id = prev_.span_id;
  e.start_us = start_us_;
  e.end_us = TraceRing::now_us();
  e.wall_us = wall_us_;
  e.tid = thread_tag();
  copy_fixed(e.name, sizeof(e.name), name_);
  copy_fixed(e.tag, sizeof(e.tag), tag_);
  e.a0 = a0_;
  e.a1 = a1_;
  ring_->record(e);
}

}  // namespace lzss::obs
