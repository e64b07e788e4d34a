#include "fault/fault.hpp"

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/prng.hpp"

namespace lzss::fault {

namespace {

struct PointState {
  Spec spec;
  bool armed = false;
  std::uint64_t visits = 0;
  std::uint64_t triggers = 0;
  rng::Xoshiro256 rng{1};
};

std::mutex g_mutex;
std::map<std::string, PointState, std::less<>>& registry() {
  static auto* points = new std::map<std::string, PointState, std::less<>>();
  return *points;
}

/// Visit bookkeeping + firing decision; caller holds g_mutex. Returns the
/// point's state when this visit fires, nullptr otherwise.
PointState* gate(const char* name) {
  auto it = registry().find(std::string_view(name));
  if (it == registry().end() || !it->second.armed) return nullptr;
  PointState& st = it->second;
  ++st.visits;
  if (st.visits <= st.spec.skip_first) return nullptr;
  if (st.spec.max_triggers != 0 && st.triggers >= st.spec.max_triggers) return nullptr;
  if (st.spec.probability < 1.0 && st.rng.next_double() >= st.spec.probability) return nullptr;
  ++st.triggers;
  return &st;
}

}  // namespace

namespace detail {

std::atomic<std::uint32_t> g_armed{0};

bool visit(const char* name, bool execute_action) {
  Spec spec;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    PointState* st = gate(name);
    if (st == nullptr) return false;
    spec = st->spec;
  }
  if (!execute_action) return true;
  switch (spec.action) {
    case Action::kThrow:
      throw InjectedFault(name);
    case Action::kKillWorker:
      throw WorkerKill{name};
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      return true;
    case Action::kFire:
    case Action::kCorrupt:
      return true;
  }
  return true;
}

void corrupt_in_place(const char* name, std::span<std::uint8_t> bytes) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  PointState* st = gate(name);
  if (st == nullptr || bytes.empty()) return;
  const std::uint64_t flips = 1 + st->rng.next_below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t byte = st->rng.next_below(bytes.size());
    bytes[byte] ^= static_cast<std::uint8_t>(1u << st->rng.next_below(8));
  }
}

bool corrupt_copy(const char* name, std::span<const std::uint8_t> src,
                  std::vector<std::uint8_t>& dst) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  PointState* st = gate(name);
  if (st == nullptr) return false;
  dst.assign(src.begin(), src.end());
  if (dst.empty()) return true;
  const std::uint64_t flips = 1 + st->rng.next_below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t byte = st->rng.next_below(dst.size());
    dst[byte] ^= static_cast<std::uint8_t>(1u << st->rng.next_below(8));
  }
  return true;
}

}  // namespace detail

void arm(std::string_view name, const Spec& spec) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  PointState& st = registry()[std::string(name)];
  if (!st.armed) detail::g_armed.fetch_add(1, std::memory_order_relaxed);
  st.armed = true;
  st.spec = spec;
  st.visits = 0;
  st.triggers = 0;
  st.rng = rng::Xoshiro256(spec.seed);
}

void disarm(std::string_view name) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  auto it = registry().find(name);
  if (it == registry().end() || !it->second.armed) return;
  it->second.armed = false;
  detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& [name, st] : registry()) {
    if (st.armed) {
      st.armed = false;
      detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

std::uint64_t visits(std::string_view name) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  auto it = registry().find(name);
  return it == registry().end() ? 0 : it->second.visits;
}

std::uint64_t triggers(std::string_view name) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  auto it = registry().find(name);
  return it == registry().end() ? 0 : it->second.triggers;
}

std::span<const char* const> all_points() noexcept {
  static constexpr const char* kPoints[] = {
      "server.queue.ingress",       // Service::submit, before enqueue
      "server.worker.pre_compress", // worker dispatch, before process()
      "server.worker.compress",     // inside do_compress's degradable region
      "server.response.egress",     // Service completion, before done()
      "server.session.egress",      // Session response serialization (wire bytes)
      "server.tcp.short_write",     // TcpServer::flush_writable (1-byte writes)
      "server.tcp.abort",           // TcpServer read/write (connection drop)
      "server.tcp.slow_reader",     // TcpServer::handle_readable (1 byte per poll round)
      "server.tcp.stalled_writer",  // TcpServer::flush_writable (injected EAGAIN, no progress)
      "server.tcp.accept_fail",     // TcpServer accept loop (EMFILE-style failure)
      "deflate.inflate.corrupt",    // zlib_decompress input (bit corruption)
      "container.block.corrupt",    // LZBC decode_block input (bit corruption)
      "container.reassemble.delay", // block fan-out, before the parent claims

      "stream.channel.stall",       // stream::Channel valid/ready (stall cycles)
      "store.file.short_write",     // store::File::pwrite (half lands, then EIO)
      "store.file.enospc",          // store::File::pwrite (fails before any byte)
      "store.file.fsync",           // store::File::fsync (EIO without syncing)
      "store.compact.rename",       // compaction's segment swap rename (crash before commit)
      "store.compact.crash",        // compaction, tmp staged but not yet renamed (kill window)
      "store.retain.unlink",        // retention segment unlink (EIO, pass aborts)
      "store.scrub.read",           // scrub's segment re-read (EIO, counted not thrown)
      "store.fsync.pace",           // LogStore tail fsync (kDelay = slow disk flush)
  };
  return std::span<const char* const>(kPoints);
}

}  // namespace lzss::fault
