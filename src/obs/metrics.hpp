// Process-wide metrics: counters, gauges, and log-linear latency histograms.
//
// The paper's evaluation is itself an observability exercise — fig. 5 is a
// per-FSM-state cycle census produced by the cycle-accurate model — and the
// service layer needs the same discipline at request granularity. This module
// is the one place every layer reports into: server::Service (per-opcode
// latency, queue depth/wait, worker occupancy), store::LogStore (fsync
// latency, recovery actions), hw::Compressor (the fig. 5 census re-exported
// per state), and the fault registry (per-point trigger counts).
//
// Design constraints, in order:
//  * Hot-path writes must be cheap and never serialize request threads.
//    Every instrument is sharded: a thread picks a fixed shard (assigned
//    round-robin on first use, cache-line padded) and does one relaxed
//    fetch_add there. No mutex, no ring overwrite, no dropped samples —
//    this replaces the 1024-sample mutex-guarded latency ring the service
//    used to keep.
//  * Scrapes are rare and may be slow: snapshot() merges the shards, runs
//    registered collectors (pull-style sources like queue depth or the
//    fault-point table), and renders to Prometheus text or JSON.
//  * Histograms are log-linear (4 linear sub-buckets per power of two, the
//    HdrHistogram compromise): ~25 % worst-case relative error on reported
//    quantiles, fixed 164-bucket footprint, values up to 2^41 (≈ 25 days
//    in microseconds) before clamping to the last bucket.
//
// A Registry is an instantiable object, not a singleton: the service owns
// one per instance (so tests stay isolated), and lzssd creates a single
// shared registry that the service, the store, and the hw census all report
// into. Instrument references returned by counter()/gauge()/histogram() are
// stable for the registry's lifetime; re-requesting the same name+labels
// returns the same instrument.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lzss::obs {

/// Label set attached to an instrument, e.g. {{"opcode", "compress"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Append @p v to @p out with JSON string escaping (backslash, quote, and
/// control characters). Shared by the JSON renderer and the event log.
void append_json_escaped(std::string& out, std::string_view v);

/// Append @p v to @p out with Prometheus label-value escaping (the exposition
/// format requires `\\`, `\"`, and `\n` inside quoted label values).
void append_prometheus_escaped(std::string& out, std::string_view v);

namespace detail {

/// Stable per-thread shard slot: assigned once per thread, round-robin, so
/// two busy threads almost never share a cache line.
[[nodiscard]] std::size_t shard_slot() noexcept;

inline constexpr std::size_t kShards = 8;

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Monotonic counter. add() is one relaxed fetch_add on the caller's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_slot() % detail::kShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Merged total. Concurrent adds may or may not be visible (relaxed), but
  /// the value is exact once writers have quiesced.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<detail::CounterShard, detail::kShards> shards_;
};

/// Last-write-wins signed gauge (queue depth, busy workers, 0/1 flags).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear histogram over non-negative integer samples (microseconds,
/// bytes, ...). Buckets 0..3 are exact; every later power-of-two octave is
/// split into 4 linear sub-buckets, so a reported bound is at most 25 % above
/// the true value. record() never blocks and never drops a sample.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 2;
  static constexpr unsigned kSub = 1u << kSubBits;          // sub-buckets/octave
  static constexpr unsigned kMaxOctave = 41;                // clamp above 2^41
  static constexpr std::size_t kBuckets = kSub + (kMaxOctave - 1) * kSub;  // 164

  void record(std::uint64_t v) noexcept {
    Shard& s = shards_[detail::shard_slot() % detail::kShards];
    s.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Attach an exemplar: a concrete traced observation that renders next to
  /// the histogram so a quantile spike links to a span tree. Last-write-wins
  /// (two relaxed stores — a torn pair under contention is acceptable for a
  /// debugging affordance). trace_id must be nonzero to render.
  void record_exemplar(std::uint64_t v, std::uint64_t trace_id) noexcept {
    ex_value_.store(v, std::memory_order_relaxed);
    ex_trace_.store(trace_id, std::memory_order_relaxed);
  }

  /// Shard-merged view; quantiles report the containing bucket's upper bound.
  struct Merged {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
  };
  [[nodiscard]] Merged merged() const noexcept;

  struct Exemplar {
    std::uint64_t value = 0;
    std::uint64_t trace_id = 0;  ///< 0 = no exemplar recorded yet
  };
  [[nodiscard]] Exemplar exemplar() const noexcept {
    return {ex_value_.load(std::memory_order_relaxed),
            ex_trace_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Largest value that lands in bucket @p i (inclusive).
  [[nodiscard]] static std::uint64_t bucket_upper_bound(std::size_t i) noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, detail::kShards> shards_;
  std::atomic<std::uint64_t> ex_value_{0};
  std::atomic<std::uint64_t> ex_trace_{0};
};

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One scraped sample; histograms carry their merged bucket table.
struct Sample {
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;   ///< counter total
  std::int64_t gauge = 0;    ///< gauge value
  // Histogram fields (kind == kHistogram). `counts` is trimmed to the last
  // non-empty bucket; pair with Histogram::bucket_upper_bound for edges.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  // Exemplar (histograms only; trace_id == 0 means none).
  std::uint64_t exemplar_value = 0;
  std::uint64_t exemplar_trace_id = 0;
};

/// Point-in-time scrape of a registry: the instrument samples plus whatever
/// the registered collectors appended, in deterministic (sorted) order.
class Snapshot {
 public:
  std::vector<Sample> samples;

  // Collector-side appenders (collectors run inside Registry::snapshot()).
  void add_counter_sample(std::string name, Labels labels, std::uint64_t value);
  void add_gauge_sample(std::string name, Labels labels, std::int64_t value);

  /// Prometheus text exposition (# TYPE lines, histogram _bucket/_sum/_count
  /// series with cumulative le edges).
  [[nodiscard]] std::string to_prometheus() const;
  /// [{"name":...,"labels":{...},"type":...,...}, ...], for embedding in a
  /// larger JSON document.
  [[nodiscard]] std::string metrics_json_array() const;

  /// First sample matching @p name (and, when non-empty, a label pair whose
  /// value is @p label_value). nullptr when absent.
  [[nodiscard]] const Sample* find(std::string_view name,
                                   std::string_view label_value = "") const noexcept;
};

/// Named-instrument registry. Instrument getters are idempotent: the same
/// name+labels returns the same instrument; the same name with a different
/// kind throws std::logic_error. References stay valid for the registry's
/// lifetime. All methods are thread-safe.
class Registry {
 public:
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  /// Pull-style source run at snapshot time (queue depths, fault-point
  /// tables, anything not worth a hot-path instrument). Collectors must not
  /// call back into this registry.
  void add_collector(std::function<void(Snapshot&)> fn);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, const Labels& labels, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< keyed by name + serialized labels
  std::vector<std::function<void(Snapshot&)>> collectors_;
};

}  // namespace lzss::obs
