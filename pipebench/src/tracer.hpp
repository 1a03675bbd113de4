// Span tracing for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public functions
// (parse_netlist, CircuitBuilder::build, analyze_perf, the Elaboration
// constructor, Simulator::step/run, stats_report, snapshot, Report
// rendering, CampaignRunner::run/run_point and the Workload hooks) in a
// Scope. A disabled tracer records nothing and reads no clock, so the
// untraced runs that produce the end-to-end numbers pay one branch per
// call. Spans stay in memory and are written out once, at the end.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

struct Span {
  std::string name;
  std::string layer;  ///< the library module the call enters
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per-layer self time: each span's duration minus the part its direct
  /// children cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace_event JSON of every span (one complete event each).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace pipebench
