// The four workloads of the pipeline benchmark and the metrics they
// report. Each drives the library through the public calls the tools
// make (mte_dse, mte_prof, mte_lint --perf); see pipebench/README.md for
// why each workload exists and which layer metric should move which
// end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cli.hpp"
#include "netlist/netlist.hpp"

namespace pipebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics for an untraced run, per-layer metrics for a
  /// traced one.
  std::vector<Metric> metrics;
  /// Human-readable lines: summaries with quartiles, gate mismatches.
  std::string report;
  /// This run's reference values, in reference.txt format.
  std::string reference;
};

/// Runs one workload for o.seconds of measured passes. Reads
/// examples/*.enl and pipebench/reference.txt relative to the working
/// directory; a traced run also writes its spans to
/// .bench_build/trace/<workload>_seed<seed>.json.
[[nodiscard]] RunResult run_workload(const Options& o);

/// The end-to-end and per-layer metric names with their units, in the
/// order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<Metric>& end_to_end_metrics();
[[nodiscard]] const std::vector<Metric>& per_layer_metrics();

/// The build() step for a parsed netlist: re-imports its single-thread
/// structure into a CircuitBuilder, re-applies the multithreaded
/// transform the text declared, and runs build() with its analyze gate.
[[nodiscard]] mte::netlist::Netlist build_parsed(const mte::netlist::Netlist& parsed);

}  // namespace pipebench
