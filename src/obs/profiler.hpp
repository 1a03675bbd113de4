// PhaseProfiler: sampling wall-time attribution per component type.
//
// Answers the question the compiled-kernel ROADMAP item depends on:
// WHERE does settle and commit time actually go? The simulator, when a
// profiler is attached (Simulator::set_profiler), times every stride-th
// eval/tick dispatch and records it here under the component's
// type_name(). Recorded durations are scaled by the stride, so bucket
// totals estimate the true per-type wall time; call counts in the report
// are NOT sampled — they are read exactly from the components'
// kernel_eval_calls()/kernel_tick_calls() at report time, as deltas since
// the window started. Counts and seconds cover the same window: the one
// since Simulator::set_profiler attached the profiler (start()).
//
// Stride 1 (the default) times every dispatch: exact, ~2 steady_clock
// reads per dispatched unit. Larger strides shrink overhead linearly at
// the cost of timing variance; counts stay exact either way.
//
// The profiler is SCRATCH in the checkpoint model: Simulator::restore()
// restarts an attached profiler's window, so post-restore reports cover
// only the replayed region (mirroring how diagnostics counters restart).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace mte::sim {
class Component;
}

namespace mte::obs {

/// One line of the per-type profile.
struct ProfileRow {
  std::string type;
  std::uint64_t instances = 0;
  std::uint64_t evals = 0;   ///< exact: kernel_eval_calls since start()
  std::uint64_t ticks = 0;   ///< exact: kernel_tick_calls since start()
  double settle_seconds = 0.0;  ///< sampled, stride-scaled
  double commit_seconds = 0.0;  ///< sampled, stride-scaled
  double settle_share = 0.0;    ///< of total sampled settle time
  double commit_share = 0.0;    ///< of total sampled commit time
};

/// One line of the top-N instance breakdown.
struct InstanceRow {
  std::string name;
  std::string type;
  std::uint64_t evals = 0;
  std::uint64_t ticks = 0;
  double settle_seconds = 0.0;
  double commit_seconds = 0.0;
};

/// The rendered profile: per-type rows ranked most-expensive-first
/// (sampled seconds, then exact eval count as the deterministic
/// tie-break), plus the top-N costliest instances.
class ProfileReport {
 public:
  [[nodiscard]] const std::vector<ProfileRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<InstanceRow>& top_instances() const noexcept {
    return top_instances_;
  }
  [[nodiscard]] double total_settle_seconds() const noexcept { return total_settle_; }
  [[nodiscard]] double total_commit_seconds() const noexcept { return total_commit_; }

  /// Column-aligned terminal table (types, then top instances).
  [[nodiscard]] std::string to_table() const;

  /// Publishes profile.<type>.{evals,ticks} (kernel category) and
  /// profile.<type>.{settle_seconds,commit_seconds} (timing category).
  void emit_metrics(MetricsSink& sink) const;

 private:
  friend class PhaseProfiler;
  std::vector<ProfileRow> rows_;
  std::vector<InstanceRow> top_instances_;
  double total_settle_ = 0.0;
  double total_commit_ = 0.0;
};

class PhaseProfiler {
 public:
  /// stride >= 1: time every stride-th dispatch (1 = every dispatch).
  explicit PhaseProfiler(std::uint32_t stride = 1) noexcept
      : stride_(stride == 0 ? 1 : stride), countdown_(1) {}

  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }

  /// Counts one dispatch; true when this one should be timed. Hot path:
  /// a decrement and compare, no allocation, no clock read.
  [[nodiscard]] bool sample_now() noexcept {
    if (--countdown_ != 0) return false;
    countdown_ = stride_;
    return true;
  }

  /// Records one timed dispatch (seconds is the raw measured duration;
  /// the profiler applies the stride scaling).
  void record_eval(const sim::Component& c, double seconds);
  void record_tick(const sim::Component& c, double seconds);

  /// Starts a new window: drops the samples and takes the components'
  /// current eval/tick call counts as the baseline report() subtracts.
  /// Simulator::set_profiler and Simulator::restore call this.
  void start(const std::vector<sim::Component*>& components);

  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }

  /// Builds the ranked per-type report. `components` supplies the exact
  /// call counts (since start()) and the instance population (pass
  /// Simulator::components()).
  [[nodiscard]] ProfileReport report(const std::vector<sim::Component*>& components,
                                     std::size_t top_n = 8) const;

 private:
  struct Bucket {
    double settle_seconds = 0.0;
    double commit_seconds = 0.0;
  };

  struct Calls {
    std::uint64_t evals = 0;
    std::uint64_t ticks = 0;
  };

  Bucket& bucket(std::map<std::string, Bucket, std::less<>>& m, std::string_view key);
  /// A component's eval/tick calls since start().
  [[nodiscard]] Calls window_calls(const sim::Component& c) const;

  std::uint32_t stride_;
  std::uint32_t countdown_;
  std::uint64_t samples_ = 0;
  std::map<std::string, Bucket, std::less<>> types_;
  std::map<std::string, Bucket, std::less<>> instances_;
  std::unordered_map<const sim::Component*, Calls> baseline_;
};

}  // namespace mte::obs
