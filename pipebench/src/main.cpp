// pipebench: the repository's end-to-end and per-layer benchmark.
//
//   pipebench --workload <dse_default|dse_screened|mesh_sim|prof_examples>
//             --seed <n> --seconds <s> --trace <0|1> [--print-reference]
//
// Run from the repository root (it reads examples/*.enl and
// pipebench/reference.txt). Prints a human-readable summary, then, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exit codes: 0 = ran (the JSON says whether outputs
// were correct), 2 = usage error, 1 = the run could not complete.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  pipebench::Options options;
  try {
    options = pipebench::parse_options(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const pipebench::UsageError& ex) {
    std::cerr << "pipebench: " << ex.what()
              << "\nusage: pipebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--print-reference]\n";
    return 2;
  }
  pipebench::RunResult res;
  try {
    res = pipebench::run_workload(options);
  } catch (const std::exception& ex) {
    std::cerr << "pipebench: " << options.workload << ": " << ex.what() << '\n';
    return 1;
  }
  if (options.print_reference) std::cerr << res.reference;

  std::cout << "== pipebench " << options.workload << " seed " << options.seed
            << (options.trace ? " (traced)" : "") << '\n'
            << res.report
            << "note: the model has no hardware reference data; correctness here "
               "means reproducing the recorded simulated statistics, not accuracy\n";
  std::string metrics;
  char buf[128];
  for (const auto& m : res.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::cout << m.name << " = " << buf << ' ' << m.unit << '\n';
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") + buf +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
