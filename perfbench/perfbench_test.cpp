// Tests of the benchmark itself: determinism in the seed, and the ledger's
// self times. Build and run with `python3 perfbench/run.py --test`.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace srv = lzss::server;

constexpr std::array<WorkloadKind, 4> kAll = {WorkloadKind::kCompressHw, WorkloadKind::kCompressSw,
                                              WorkloadKind::kDecompress, WorkloadKind::kLog};

/// Relative to the test's working directory (ctest runs it in the build
/// directory).
std::string work_dir() { return "perfbench_test_work"; }

/// The warm-up pass and one timed pass: the shortest complete run.
Result one_pass(WorkloadKind kind, std::uint64_t seed, bool trace) {
  Options o;
  o.workload = kind;
  o.seed = seed;
  o.seconds = 0;
  o.trace = trace;
  o.work_dir = work_dir();
  return run_benchmark(o);
}

double metric(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

/// Smallest positive step of the clocks the ledger reads: the wall clock
/// of the loopback span and the thread CPU clock of the layer spans.
std::uint64_t timer_resolution_ns() {
  std::uint64_t wall = UINT64_MAX, cpu = UINT64_MAX;
  for (int i = 0; i < 1000; ++i) {
    const auto t0 = Clock::now();
    auto t1 = Clock::now();
    while (t1 == t0) t1 = Clock::now();
    wall = std::min(wall, elapsed_ns(t0, t1));
    const std::uint64_t c0 = thread_cpu_ns();
    std::uint64_t c1 = thread_cpu_ns();
    while (c1 == c0) c1 = thread_cpu_ns();
    cpu = std::min(cpu, c1 - c0);
  }
  return std::max(wall, cpu);
}

/// Confines the calling thread, and every thread it starts, to the CPU it
/// is running on; restores the previous mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~PinToOneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

TEST(Determinism, SameSeedGivesTheSameRequestSequence) {
  for (const WorkloadKind kind : kAll) {
    const Plan a = make_plan(kind, 7);
    const Plan b = make_plan(kind, 7);
    Sequence seq(a, 7);
    EXPECT_EQ(sequence_digest(a, 7, 3 * seq.pass_length()),
              sequence_digest(b, 7, 3 * seq.pass_length()))
        << workload_name(kind);
  }
}

TEST(Determinism, DifferentSeedGivesADifferentSequence) {
  for (const WorkloadKind kind : kAll) {
    EXPECT_NE(sequence_digest(make_plan(kind, 7), 7, 64),
              sequence_digest(make_plan(kind, 8), 8, 64))
        << workload_name(kind);
  }
}

TEST(Determinism, SameSeedGivesTheSameRatio) {
  for (const WorkloadKind kind : kAll) {
    const Result a = one_pass(kind, 3, false);
    const Result b = one_pass(kind, 3, false);
    EXPECT_EQ(a.failed, 0u) << workload_name(kind);
    EXPECT_GT(metric(a, "ratio"), 0.0) << workload_name(kind);
    EXPECT_EQ(metric(a, "ratio"), metric(b, "ratio")) << workload_name(kind);
  }
}

TEST(Determinism, SameSeedGivesTheSameCounts) {
  const Result hw_a = one_pass(WorkloadKind::kCompressHw, 3, true);
  const Result hw_b = one_pass(WorkloadKind::kCompressHw, 3, true);
  EXPECT_GT(metric(hw_a, "hw.sim_cycles_per_byte"), 0.0);
  EXPECT_EQ(metric(hw_a, "hw.sim_cycles_per_byte"), metric(hw_b, "hw.sim_cycles_per_byte"));

  const Result sw_a = one_pass(WorkloadKind::kCompressSw, 3, true);
  const Result sw_b = one_pass(WorkloadKind::kCompressSw, 3, true);
  EXPECT_GT(metric(sw_a, "lzss.probes_per_byte"), 0.0);
  EXPECT_EQ(metric(sw_a, "lzss.probes_per_byte"), metric(sw_b, "lzss.probes_per_byte"));
  EXPECT_EQ(metric(sw_a, "lzss.compare_bytes_per_probe"),
            metric(sw_b, "lzss.compare_bytes_per_probe"));
  // The hw layer is idle on compress_sw, and lzss on compress_hw.
  EXPECT_EQ(metric(sw_a, "hw.match_mb_s"), 0.0);
  EXPECT_EQ(metric(hw_a, "lzss.match_mb_s"), 0.0);
}

TEST(Ledger, ReplayedLayersFitInsideTheLoopbackCall) {
  // Each term is the fastest of several repeats, as in the ledger; the
  // replayed top-level calls then never take longer than the loopback call
  // that makes them, beyond the clock's resolution and the host's drift.
  // The service's threads and the replaying thread share one CPU here, so
  // per-core speed differences and the LZBC fan-out's parallel decode
  // (which can beat the sequential replay when CPUs are free) stay out of
  // the comparison. Requests of at most 4 KiB only: on larger ones the
  // repeat-to-repeat jitter of the layer work (a few percent) exceeds the
  // fixed costs the loopback call adds, and the difference is noise either
  // way. A LOG_APPEND is replayed once and not checked: a repeat would
  // append the record again, and the side stores' sequences would stop
  // mirroring the ones later reads ask for. On a shared host the CPU's
  // speed drifts by a few percent between one repeat and the next; the
  // fixed costs of a small request are of the same order, hence kDrift.
  constexpr std::size_t kSmall = 4096;
  constexpr int kRepeats = 25;
  constexpr double kDrift = 0.05;
  const PinToOneCpu pin;
  const double resolution_us = static_cast<double>(timer_resolution_ns()) / 1e3;
  for (const WorkloadKind kind :
       {WorkloadKind::kCompressSw, WorkloadKind::kDecompress, WorkloadKind::kLog}) {
    Env env(kind, 5, work_dir());
    Ledger ledger(env.plan(), work_dir());
    Sequence seq(env.plan(), 5);
    const auto measure = [&](const Request& req, int repeats) {
      Minima m;
      for (int rep = 0; rep < repeats; ++rep) {
        const Replay r = ledger.replay(req);
        EXPECT_EQ(r.loopback_status, srv::Status::kOk) << workload_name(kind);
        m.add(r, UINT64_MAX);
      }
      return m;
    };
    const auto limit_us = [&](const Minima& m) {
      return -resolution_us - kDrift * static_cast<double>(m.loopback_ns) / 1e3;
    };
    int checked = 0;
    for (int i = 0; i < 400 && checked < 8; ++i) {
      const Request req = seq.next();
      const bool check = req.item->raw.size() <= kSmall &&
                         req.frame.opcode != srv::Opcode::kLogAppend;
      Minima m = measure(req, check ? kRepeats : 1);
      if (!check) continue;
      ++checked;
      // A hiccup of the host can slow every repeat of one side; such a
      // request is measured once more before it counts as a failure.
      if (m.dispatch_us() < limit_us(m)) m = measure(req, kRepeats);
      const double loopback_us = static_cast<double>(m.loopback_ns) / 1e3;
      EXPECT_GE(m.dispatch_us(), limit_us(m))
          << workload_name(kind) << " request " << i << " (" << srv::opcode_name(req.frame.opcode)
          << ", " << req.item->raw.size() << " B, loopback " << loopback_us << " us)";
    }
    EXPECT_EQ(checked, 8) << workload_name(kind);
  }
}

TEST(Verify, EveryWrongResponseIsCounted) {
  const Plan plan = make_plan(WorkloadKind::kCompressSw, 1);
  Sequence seq(plan, 1);
  const Request req = seq.next();

  srv::ResponseFrame busy;
  busy.status = srv::Status::kBusy;
  EXPECT_EQ(verify(req, busy), "BUSY");

  srv::ResponseFrame garbage;
  garbage.payload = {1, 2, 3};
  EXPECT_EQ(verify(req, garbage), "mismatch");
}

}  // namespace
}  // namespace perfbench
