// One benchmark run: set-up, the closed loop over one TCP connection,
// verification of every response, and the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "ledger.hpp"
#include "workload.hpp"

namespace perfbench {

struct Options {
  WorkloadKind workload = WorkloadKind::kCompressHw;
  std::uint64_t seed = 1;
  /// Measuring time, counted from the end of the untimed warm-up pass. The
  /// loop ends at the first pass boundary after it, and always completes at
  /// least one timed pass (0 = exactly one).
  double seconds = 10;
  /// Traced run: replay every request through the layers (per-layer
  /// metrics) instead of reporting the end-to-end ones.
  bool trace = false;
  std::string work_dir = ".bench_work";
};

/// An untraced run sets up at least kMinSetupReps times, and more while the
/// set-ups so far took under kSetupBudgetS, up to kMaxSetupReps; setup_s is
/// their median and the last one is measured. A traced run sets up once.
inline constexpr unsigned kMinSetupReps = 5;
inline constexpr unsigned kMaxSetupReps = 25;
inline constexpr double kSetupBudgetS = 1.0;

struct Result {
  Options options;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t passes = 0;            ///< timed passes (the warm-up is not one)
  /// Medians over timed passes of each pass's p50 and p99 latency. In the
  /// record, not among the metrics: see README.md, "Run-to-run spread".
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t p99_tail_samples = 0;  ///< latency samples above p99_ms
  /// Failed requests by class: a Status name, "mismatch" (OK but wrong
  /// bytes), "transport", or "replay:<Status>" for a traced replay.
  std::map<std::string, std::uint64_t> failures;
  std::vector<double> setup_runs_s;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Traced runs: distinct requests whose dispatch / write self time came
  /// out negative (see ledger.hpp).
  std::uint64_t negative_dispatch = 0;
  std::uint64_t negative_write = 0;
  Fingerprint fingerprint;

  /// Everything: options, counts, failures by class, metrics, fingerprint.
  [[nodiscard]] std::string record_json() const;
  /// {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string result_json() const;
};

/// Runs the benchmark described by @p options. Throws on set-up failure.
[[nodiscard]] Result run_benchmark(const Options& options);

/// Empty when @p response is what @p request must produce, else the
/// failure class (see Result::failures).
[[nodiscard]] std::string verify(const Request& request,
                                 const lzss::server::ResponseFrame& response);

}  // namespace perfbench
