// lzrq_bench: the LZRQ service benchmark (README.md in this directory).
//
//   lzrq_bench --workload compress_hw|compress_sw|decompress|log --seed N
//              --seconds S --trace 0|1 [--workdir DIR]
//
// Prints each metric by name with its unit, then one JSON line with the
// full record (counts, failures by class, fingerprint), then the result
// line {"correct","attempted","failed","metrics"} as the last line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lzrq_bench --workload compress_hw|compress_sw|decompress|log "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
}

bool parse_args(int argc, char** argv, perfbench::Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (arg == "--workload") {
      if (!perfbench::parse_workload(val, o.workload)) return false;
      have_workload = true;
      continue;
    }
    if (arg == "--workdir") {
      o.work_dir = val;
      continue;
    }
    char* end = nullptr;
    if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else {
      return false;
    }
    if (val.empty() || *end != '\0') return false;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }
  try {
    const perfbench::Fingerprint fingerprint = perfbench::take_fingerprint();
    if (!fingerprint.optimized) {
      std::fprintf(stderr,
                   "\n!!! WARNING: this benchmark was built WITHOUT optimisation (build type "
                   "'%s', flags '%s').\n!!! Its numbers do not describe the program. Rebuild "
                   "with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release.\n\n",
                   fingerprint.build_type.c_str(), fingerprint.flags.c_str());
    }
    perfbench::Result result = perfbench::run_benchmark(options);
    result.fingerprint = fingerprint;

    std::printf("lzrq_bench workload=%s seed=%llu trace=%d requests=%llu passes=%llu "
                "failed=%llu p99_tail_samples=%llu\n",
                perfbench::workload_name(options.workload),
                static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.passes),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.p99_tail_samples));
    for (const auto& m : result.metrics)
      std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!options.trace) {
      std::printf("  %-32s %14.6f ms\n", "latency_p50_ms", result.p50_ms);
      std::printf("  %-32s %14.6f ms\n", "latency_p99_ms", result.p99_ms);
    }
    std::printf("%s\n%s\n", result.record_json().c_str(), result.result_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzrq_bench: %s\n", e.what());
    return 1;
  }
}
