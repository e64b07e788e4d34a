#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "deflate/container.hpp"
#include "lzss/params.hpp"
#include "workloads/corpus.hpp"

namespace perfbench {

namespace {

namespace srv = lzss::server;

constexpr std::size_t kKiB = 1024;
/// Bytes generated per corpus; every slice is cut from these. The corpora
/// are the same for every seed (the generators' compressibility varies
/// from one generator seed to another by more than any bound could
/// absorb); the run seed picks the slices, their sizes and their order.
constexpr std::size_t kCorpusBytes = 4 * kKiB * kKiB;
constexpr std::uint64_t kCorpusSeed = 1;

constexpr std::size_t kHwItems = 128;
constexpr std::size_t kHwItemBytes = 64 * kKiB;
constexpr std::size_t kSwItems = 512;
constexpr std::size_t kZlibItemsPerForm = 180;
constexpr std::size_t kLzbcItems = 5;
constexpr std::size_t kLogItems = 2048;

const std::array<std::string, 2> kPaperCorpora = {"wiki", "x2e"};
const std::array<std::string, 4> kSwCorpora = {"wiki", "x2e", "netlog", "bitstream"};
const std::array<std::string, 2> kLogCorpora = {"x2e", "netlog"};

template <typename T>
void shuffle(lzss::rng::Xoshiro256& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// One size per equal-probability stratum of a log-uniform [lo, hi]
/// distribution, in increasing order. @p jitter (0..1) is how much of its
/// stratum each draw may wander over.
std::vector<std::size_t> stratified_log_sizes(lzss::rng::Xoshiro256& rng, std::size_t n,
                                              std::size_t lo, std::size_t hi, double jitter) {
  std::vector<std::size_t> sizes(n);
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi));
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        (static_cast<double>(i) + 0.5 + jitter * (rng.next_double() - 0.5)) / static_cast<double>(n);
    sizes[i] = static_cast<std::size_t>(std::llround(std::exp(a + u * (b - a))));
  }
  return sizes;
}

/// Corpus names for n consecutive strata: each block of names.size()
/// strata gets every corpus once, in a seeded order, so every size band
/// holds every corpus.
template <std::size_t N>
std::vector<std::string> balanced_corpora(lzss::rng::Xoshiro256& rng, std::size_t n,
                                          const std::array<std::string, N>& names) {
  std::vector<std::string> out;
  out.reserve(n);
  std::vector<std::string> block(names.begin(), names.end());
  while (out.size() < n) {
    shuffle(rng, block);
    for (const auto& name : block) {
      if (out.size() == n) break;
      out.push_back(name);
    }
  }
  return out;
}

class Corpora {
 public:
  const std::vector<std::uint8_t>& get(const std::string& name) {
    for (const auto& [n, bytes] : cache_)
      if (n == name) return bytes;
    cache_.emplace_back(name, lzss::wl::make_corpus(name, kCorpusBytes, kCorpusSeed));
    return cache_.back().second;
  }

  std::vector<std::uint8_t> slice(lzss::rng::Xoshiro256& rng, const std::string& name,
                                  std::size_t size) {
    const auto& corpus = get(name);
    size = std::min(size, corpus.size());
    const std::size_t off = rng.next_below(corpus.size() - size + 1);
    return {corpus.begin() + static_cast<std::ptrdiff_t>(off),
            corpus.begin() + static_cast<std::ptrdiff_t>(off + size)};
  }

 private:
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cache_;
};

template <std::size_t N>
void add_sized_items(lzss::rng::Xoshiro256& rng, Corpora& corpora, Plan& plan, Form form,
                     std::size_t n, std::size_t lo, std::size_t hi,
                     const std::array<std::string, N>& names) {
  const auto sizes = stratified_log_sizes(rng, n, lo, hi, 1.0);
  const auto corpus_of = balanced_corpora(rng, n, names);
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.form = form;
    item.raw = corpora.slice(rng, corpus_of[i], sizes[i]);
    plan.items.push_back(std::move(item));
  }
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

const char* workload_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kCompressHw: return "compress_hw";
    case WorkloadKind::kCompressSw: return "compress_sw";
    case WorkloadKind::kDecompress: return "decompress";
    case WorkloadKind::kLog: return "log";
  }
  return "?";
}

bool parse_workload(std::string_view name, WorkloadKind& out) noexcept {
  for (const auto kind : {WorkloadKind::kCompressHw, WorkloadKind::kCompressSw,
                          WorkloadKind::kDecompress, WorkloadKind::kLog}) {
    if (name == workload_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

Plan make_plan(WorkloadKind kind, std::uint64_t seed) {
  Plan plan;
  plan.kind = kind;
  std::uint64_t s = seed;
  lzss::rng::Xoshiro256 rng(lzss::rng::splitmix64(s));
  Corpora corpora;

  switch (kind) {
    case WorkloadKind::kCompressHw:
      // Three wiki slices to one x2e: x2e runs about 15% faster through the
      // model, and an even mix would put the median latency on the gap
      // between the two corpora instead of inside one of them.
      for (std::size_t i = 0; i < kHwItems; ++i) {
        Item item;
        item.raw = corpora.slice(rng, kPaperCorpora[i % 4 == 3 ? 1 : 0], kHwItemBytes);
        plan.items.push_back(std::move(item));
      }
      break;
    case WorkloadKind::kCompressSw:
      add_sized_items(rng, corpora, plan, Form::kRaw, kSwItems, kKiB, 64 * kKiB, kSwCorpora);
      break;
    case WorkloadKind::kDecompress: {
      add_sized_items(rng, corpora, plan, Form::kZlibFixed, kZlibItemsPerForm, kKiB, 64 * kKiB,
                      kSwCorpora);
      add_sized_items(rng, corpora, plan, Form::kZlibDynamic, kZlibItemsPerForm, kKiB,
                      64 * kKiB, kSwCorpora);
      // LZBC containers sit near the midpoints of five equal strata of
      // 256 KiB..1 MiB, each a concatenation of all four corpora, so the
      // few large requests look alike from seed to seed.
      for (std::size_t i = 0; i < kLzbcItems; ++i) {
        const double u = (static_cast<double>(i) + 0.5 + 0.1 * (rng.next_double() - 0.5)) /
                         static_cast<double>(kLzbcItems);
        const auto size = static_cast<std::size_t>(256.0 * kKiB + u * 768.0 * kKiB);
        std::vector<std::string> order(kSwCorpora.begin(), kSwCorpora.end());
        shuffle(rng, order);
        Item item;
        item.form = Form::kLzbc;
        for (std::size_t c = 0; c < order.size(); ++c) {
          const std::size_t part = c + 1 < order.size() ? size / order.size()
                                                        : size - item.raw.size();
          const auto bytes = corpora.slice(rng, order[c], part);
          item.raw.insert(item.raw.end(), bytes.begin(), bytes.end());
        }
        plan.items.push_back(std::move(item));
      }
      break;
    }
    case WorkloadKind::kLog:
      add_sized_items(rng, corpora, plan, Form::kRaw, kLogItems, 256, 8 * kKiB, kLogCorpora);
      break;
  }
  shuffle(rng, plan.items);
  return plan;
}

std::size_t build_containers(Plan& plan, srv::TcpClient& client) {
  // Stands in for a third-party zlib sender: zlib's default level 6 with a
  // 32 KiB window.
  lzss::core::MatchParams zlib_default;
  zlib_default.window_bits = 15;
  zlib_default = zlib_default.with_level(6);

  std::size_t failures = 0;
  std::uint64_t id = 1;
  for (Item& item : plan.items) {
    if (item.form == Form::kZlibDynamic) {
      item.container =
          lzss::deflate::zlib_compress(item.raw, zlib_default, lzss::deflate::BlockKind::kDynamic);
      continue;
    }
    if (item.form != Form::kZlibFixed && item.form != Form::kLzbc) continue;
    srv::RequestFrame req;
    req.id = id++;
    req.payload = item.raw;
    if (item.form == Form::kZlibFixed) {
      req.opcode = srv::Opcode::kCompress;
      req.flags = srv::flags_with_matchfinder(0, kHashChainSelector);
    } else {
      req.opcode = srv::Opcode::kCompressBlocked;
    }
    srv::ResponseFrame resp = client.call(req);
    if (resp.status != srv::Status::kOk) ++failures;
    item.container = std::move(resp.payload);
  }
  return failures;
}

Sequence::Sequence(const Plan& plan, std::uint64_t seed)
    : plan_(plan), read_rng_(seed ^ 0x5EEDF00DCAFEull) {
  if (plan.items.empty()) throw std::invalid_argument("Sequence: empty plan");
}

std::size_t Sequence::pass_length() const noexcept {
  return plan_.kind == WorkloadKind::kLog ? 2 * plan_.items.size() : plan_.items.size();
}

Request Sequence::next() {
  Request r;
  const std::size_t len = pass_length();
  const std::uint64_t within = step_ % len;
  r.pass = step_ / len;
  r.last_of_pass = within + 1 == len;
  r.frame.id = step_ + 1;
  ++step_;

  switch (plan_.kind) {
    case WorkloadKind::kCompressHw:
    case WorkloadKind::kCompressSw:
      r.item = &plan_.items[within];
      r.frame.opcode = srv::Opcode::kCompress;
      if (plan_.kind == WorkloadKind::kCompressSw)
        r.frame.flags = srv::flags_with_matchfinder(0, kHashChainSelector);
      r.frame.payload = r.item->raw;
      break;
    case WorkloadKind::kDecompress:
      r.item = &plan_.items[within];
      r.frame.opcode = srv::Opcode::kDecompress;
      r.frame.payload = r.item->container;
      break;
    case WorkloadKind::kLog:
      if (within % 2 == 0) {
        r.item = &plan_.items[within / 2];
        r.frame.opcode = srv::Opcode::kLogAppend;
        r.frame.payload = r.item->raw;
        r.expect_seq = ++appended_;
      } else {
        // Uniform over the last n sequences appended (fewer in the warm-up
        // pass), so every timed pass reads the same mix of tail and rotated
        // segments. Sequence k holds item (k - 1) mod n: every pass appends
        // the items in the same order.
        const std::uint64_t window = std::min<std::uint64_t>(appended_, plan_.items.size());
        const std::uint64_t seq = appended_ - read_rng_.next_below(window);
        r.item = &plan_.items[(seq - 1) % plan_.items.size()];
        r.frame.opcode = srv::Opcode::kLogRead;
        put_le64(r.frame.payload, seq);
      }
      break;
  }
  return r;
}

std::uint64_t sequence_digest(const Plan& plan, std::uint64_t seed, std::size_t count) {
  Sequence seq(plan, seed);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Request r = seq.next();
    mix(static_cast<std::uint8_t>(r.frame.opcode));
    mix(static_cast<std::uint8_t>(r.frame.flags));
    mix(static_cast<std::uint8_t>(r.frame.flags >> 8));
    for (const std::uint8_t b : r.frame.payload) mix(b);
    for (const std::uint8_t b : r.item->raw) mix(b);
  }
  return h;
}

lzss::store::StoreOptions bench_store_options() {
  lzss::store::StoreOptions opt;
  opt.fsync_policy = lzss::store::FsyncPolicy::kNever;
  return opt;
}

std::string make_fresh_dir(const std::string& parent, const std::string& prefix) {
  namespace fs = std::filesystem;
  fs::create_directories(parent);
  for (unsigned i = 0;; ++i) {
    const fs::path p = fs::path(parent) / (prefix + "-" + std::to_string(i));
    if (fs::create_directory(p)) return p.string();
  }
}

Env::Env(WorkloadKind kind, std::uint64_t seed, const std::string& work_dir)
    : plan_(make_plan(kind, seed)) {
  try {
    service_ = std::make_unique<srv::Service>(srv::ServiceConfig{});
    if (kind == WorkloadKind::kLog) {
      store_dir_ = make_fresh_dir(work_dir, "store");
      store_ = std::make_unique<lzss::store::LogStore>(store_dir_, bench_store_options());
      service_->attach_store(store_.get());
    }
    tcp_ = std::make_unique<srv::TcpServer>(*service_, 0);
    tcp_thread_ = std::thread([this] { tcp_->run(); });
    client_ = std::make_unique<srv::TcpClient>("127.0.0.1", tcp_->port());
    if (kind == WorkloadKind::kDecompress) setup_failures_ = build_containers(plan_, *client_);
  } catch (...) {
    shutdown();
    throw;
  }
}

Env::~Env() { shutdown(); }

void Env::reconnect() {
  client_.reset();
  client_ = std::make_unique<srv::TcpClient>("127.0.0.1", tcp_->port());
}

void Env::shutdown() noexcept {
  client_.reset();
  if (tcp_thread_.joinable()) {
    tcp_->stop();
    tcp_thread_.join();
  }
  tcp_.reset();
  if (service_) service_->stop();
  service_.reset();
  store_.reset();
  if (!store_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }
}

}  // namespace perfbench
