// Host and build fingerprint recorded with every benchmark result.
#pragma once

#include <array>
#include <string>

namespace perfbench {

struct Fingerprint {
  unsigned hardware_concurrency = 0;
  /// Effective parallelism measured by spinning 1, 2 and 4 threads on equal
  /// work: n * t(1) / t(n). A host with one usable CPU reads about 1 at
  /// every width, whatever hardware_concurrency says.
  std::array<double, 3> effective_parallelism{};
  std::string compiler;
  std::string build_type;
  std::string flags;
  bool optimized = false;  ///< compiled with optimisation enabled
  std::string simd_isa;    ///< the ISA simd::match_length dispatches to

  [[nodiscard]] std::string json() const;
};

/// Measures the host (a few tenths of a second of spinning) and reads the
/// build's own description.
[[nodiscard]] Fingerprint take_fingerprint();

/// @p s as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
