#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lzss::obs {

namespace detail {

std::size_t shard_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

void append_json_escaped(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
}

void append_prometheus_escaped(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

// --- Histogram --------------------------------------------------------------

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);  // exact buckets 0..3
  unsigned octave = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= kSubBits
  if (octave > kMaxOctave) {
    octave = kMaxOctave;
    v = (std::uint64_t{1} << (kMaxOctave + 1)) - 1;  // clamp into the top octave
  }
  const std::uint64_t sub = (v - (std::uint64_t{1} << octave)) >> (octave - kSubBits);
  return kSub + static_cast<std::size_t>(octave - kSubBits) * kSub +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t i) noexcept {
  if (i < kSub) return i;
  const unsigned octave = static_cast<unsigned>((i - kSub) / kSub) + kSubBits;
  const std::uint64_t sub = (i - kSub) % kSub;
  const std::uint64_t width = std::uint64_t{1} << (octave - kSubBits);
  return (std::uint64_t{1} << octave) + (sub + 1) * width - 1;
}

Histogram::Merged Histogram::merged() const noexcept {
  Merged m;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = s.counts[i].load(std::memory_order_relaxed);
      m.counts[i] += c;
      m.count += c;
    }
    m.sum += s.sum.load(std::memory_order_relaxed);
  }
  return m;
}

std::uint64_t Histogram::Merged::quantile(double q) const noexcept {
  if (count == 0) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += counts[i];
    if (cum >= rank) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBuckets - 1);
}

// --- Registry ---------------------------------------------------------------

namespace {

std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  return key;
}

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

void append_label_set(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_prometheus_escaped(out, v);
    out += '"';
  }
  out += '}';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

}  // namespace

Registry::Entry& Registry::entry(std::string_view name, const Labels& labels, Kind kind) {
  const std::string key = make_key(name, labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("obs: metric '" + std::string(name) + "' re-registered as " +
                             kind_name(kind) + " but exists as " +
                             kind_name(it->second.kind));
    return it->second;
  }
  Entry e;
  e.name = std::string(name);
  e.labels = labels;
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: e.histogram = std::make_unique<Histogram>(); break;
  }
  return entries_.emplace(key, std::move(e)).first->second;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return *entry(name, labels, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return *entry(name, labels, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels) {
  return *entry(name, labels, Kind::kHistogram).histogram;
}

void Registry::add_collector(std::function<void(Snapshot&)> fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(fn));
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::vector<std::function<void(Snapshot&)>> collectors;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // entries_ is a std::map keyed by name+labels, so iteration — and
    // therefore every rendered exposition — is deterministically ordered.
    for (const auto& [key, e] : entries_) {
      Sample s;
      s.name = e.name;
      s.labels = e.labels;
      s.kind = e.kind;
      switch (e.kind) {
        case Kind::kCounter:
          s.value = e.counter->value();
          break;
        case Kind::kGauge:
          s.gauge = e.gauge->value();
          break;
        case Kind::kHistogram: {
          const auto m = e.histogram->merged();
          s.count = m.count;
          s.sum = m.sum;
          s.p50 = m.quantile(0.50);
          s.p90 = m.quantile(0.90);
          s.p99 = m.quantile(0.99);
          std::size_t last = 0;
          for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
            if (m.counts[i] != 0) last = i + 1;
          s.counts.assign(m.counts.begin(),
                          m.counts.begin() + static_cast<std::ptrdiff_t>(last));
          const auto ex = e.histogram->exemplar();
          s.exemplar_value = ex.value;
          s.exemplar_trace_id = ex.trace_id;
          break;
        }
      }
      out.samples.push_back(std::move(s));
    }
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn(out);
  return out;
}

// --- Snapshot ---------------------------------------------------------------

void Snapshot::add_counter_sample(std::string name, Labels labels, std::uint64_t value) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Kind::kCounter;
  s.value = value;
  samples.push_back(std::move(s));
}

void Snapshot::add_gauge_sample(std::string name, Labels labels, std::int64_t value) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Kind::kGauge;
  s.gauge = value;
  samples.push_back(std::move(s));
}

const Sample* Snapshot::find(std::string_view name,
                             std::string_view label_value) const noexcept {
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    if (label_value.empty()) return &s;
    for (const auto& [k, v] : s.labels)
      if (v == label_value) return &s;
  }
  return nullptr;
}

std::string Snapshot::to_prometheus() const {
  // Group samples by metric name (stable, so label order within a name is
  // preserved): the exposition format allows one # TYPE line per family,
  // and collector-added samples may arrive interleaved.
  std::vector<const Sample*> ordered;
  ordered.reserve(samples.size());
  for (const Sample& s : samples) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Sample* a, const Sample* b) { return a->name < b->name; });

  std::string out;
  std::string_view last_typed;
  for (const Sample* sp : ordered) {
    const Sample& s = *sp;
    if (s.name != last_typed) {
      out += "# TYPE ";
      out += s.name;
      out += ' ';
      out += kind_name(s.kind);
      out += '\n';
      last_typed = s.name;
    }
    if (s.kind == Kind::kHistogram) {
      // Cumulative le-edged buckets; empty buckets are elided to keep the
      // exposition compact (the cumulative counts stay correct regardless).
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < s.counts.size(); ++i) {
        if (s.counts[i] == 0) continue;
        cum += s.counts[i];
        out += s.name;
        out += "_bucket";
        Labels with_le = s.labels;
        with_le.emplace_back("le", std::to_string(Histogram::bucket_upper_bound(i)));
        append_label_set(out, with_le);
        out += ' ';
        append_u64(out, cum);
        out += '\n';
      }
      out += s.name;
      out += "_bucket";
      Labels inf = s.labels;
      inf.emplace_back("le", "+Inf");
      append_label_set(out, inf);
      out += ' ';
      append_u64(out, s.count);
      if (s.exemplar_trace_id != 0) {
        // OpenMetrics-style exemplar: links this series to a concrete trace
        // retrievable from GET /trace (or /trace/slow).
        char ex[64];
        std::snprintf(ex, sizeof(ex), " # {trace_id=\"%016" PRIx64 "\"} ",
                      s.exemplar_trace_id);
        out += ex;
        append_u64(out, s.exemplar_value);
      }
      out += '\n';
      out += s.name;
      out += "_sum";
      append_label_set(out, s.labels);
      out += ' ';
      append_u64(out, s.sum);
      out += '\n';
      out += s.name;
      out += "_count";
      append_label_set(out, s.labels);
      out += ' ';
      append_u64(out, s.count);
      out += '\n';
    } else {
      out += s.name;
      append_label_set(out, s.labels);
      out += ' ';
      if (s.kind == Kind::kCounter) {
        append_u64(out, s.value);
      } else {
        append_i64(out, s.gauge);
      }
      out += '\n';
    }
  }
  return out;
}

std::string Snapshot::metrics_json_array() const {
  std::string out = "[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\"";
    if (!s.labels.empty()) {
      out += ",\"labels\":{";
      bool lf = true;
      for (const auto& [k, v] : s.labels) {
        if (!lf) out += ',';
        lf = false;
        out += '"';
        append_json_escaped(out, k);
        out += "\":\"";
        append_json_escaped(out, v);
        out += '"';
      }
      out += '}';
    }
    out += ",\"type\":\"";
    out += kind_name(s.kind);
    out += "\"";
    switch (s.kind) {
      case Kind::kCounter:
        out += ",\"value\":";
        append_u64(out, s.value);
        break;
      case Kind::kGauge:
        out += ",\"value\":";
        append_i64(out, s.gauge);
        break;
      case Kind::kHistogram:
        out += ",\"count\":";
        append_u64(out, s.count);
        out += ",\"sum\":";
        append_u64(out, s.sum);
        out += ",\"p50\":";
        append_u64(out, s.p50);
        out += ",\"p90\":";
        append_u64(out, s.p90);
        out += ",\"p99\":";
        append_u64(out, s.p99);
        if (s.exemplar_trace_id != 0) {
          char ex[96];
          std::snprintf(ex, sizeof(ex),
                        ",\"exemplar\":{\"trace_id\":\"%016" PRIx64 "\",\"value\":%" PRIu64
                        "}",
                        s.exemplar_trace_id, s.exemplar_value);
          out += ex;
        }
        break;
    }
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace lzss::obs
