#include "fingerprint.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "lzss/simd_compare.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

constexpr std::array<unsigned, 3> kProbeThreads = {1, 2, 4};

std::atomic<std::uint64_t> g_spin_sink{0};

std::uint64_t spin(std::uint64_t iterations) noexcept {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall seconds for @p threads threads to each spin @p iterations.
double spin_seconds(unsigned threads, std::uint64_t iterations) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      g_spin_sink.fetch_xor(spin(iterations), std::memory_order_relaxed);
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Fingerprint take_fingerprint() {
  Fingerprint fp;
  fp.hardware_concurrency = std::thread::hardware_concurrency();

  // Calibrate one unit of work to about 10 ms, then take the best of five
  // timings per width.
  std::uint64_t iterations = 1u << 20;
  while (spin_seconds(1, iterations) < 0.01 && iterations < (1ull << 34)) iterations *= 2;
  std::array<double, kProbeThreads.size()> best{};
  for (std::size_t i = 0; i < kProbeThreads.size(); ++i) {
    best[i] = spin_seconds(kProbeThreads[i], iterations);
    for (int rep = 1; rep < 5; ++rep)
      best[i] = std::min(best[i], spin_seconds(kProbeThreads[i], iterations));
  }
  for (std::size_t i = 0; i < kProbeThreads.size(); ++i)
    fp.effective_parallelism[i] = kProbeThreads[i] * best[0] / best[i];

  fp.compiler = compiler_name();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.flags = PERFBENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
  fp.optimized = true;
#endif
  fp.simd_isa = lzss::core::simd::isa_name(lzss::core::simd::active_isa());
  return fp;
}

std::string Fingerprint::json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"hardware_concurrency\":%u,\"effective_parallelism\":{\"1\":%.6g,\"2\":%.6g,"
                "\"4\":%.6g},",
                hardware_concurrency, effective_parallelism[0], effective_parallelism[1],
                effective_parallelism[2]);
  std::string out = buf;
  out += "\"compiler\":" + json_string(compiler);
  out += ",\"build_type\":" + json_string(build_type);
  out += ",\"flags\":" + json_string(flags);
  out += std::string(",\"optimized\":") + (optimized ? "true" : "false");
  out += ",\"simd_isa\":" + json_string(simd_isa) + "}";
  return out;
}

}  // namespace perfbench
