// Command line of the pipebench program:
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--print-reference]
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipebench {

/// The workloads, in the order BENCHMARK.json lists them.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"dse_default", "dse_screened",
                                              "mesh_sim", "prof_examples"};
  return names;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Print this run's reference lines (reference.txt format) to stderr.
  bool print_reference = false;
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses argv (without the program name); throws UsageError with a
/// message naming the bad flag or value.
[[nodiscard]] Options parse_options(const std::vector<std::string>& args);

}  // namespace pipebench
