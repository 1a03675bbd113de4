// PhaseProfiler: wall-time attribution per component type.
//
// Answers the question the compiled-kernel ROADMAP item depends on:
// WHERE does settle and commit time actually go? While attached
// (Simulator::set_profiler), every eval/tick dispatch runs through
// dispatch(), which adds its wall time to the component's own settle or
// commit accumulator (Component::kernel_settle_time/kernel_commit_time);
// the hot path looks nothing up. report() groups the components' calls
// and seconds by type_name(), as deltas since start(): counts and seconds
// cover the same window, the one since the profiler was attached.
//
// Charging rule at stride 1 (the default): one steady_clock read per
// dispatch. Each settle and commit phase opens a chain with one read, and
// the read that closes one dispatch opens the next, so a dispatch is
// charged its own run plus the kernel bookkeeping that scheduled it and
// the rows partition the phase. Phase timing (Simulator::set_phase_timing)
// uses the opening reads as its phase boundaries: one clock for both. At
// stride > 1 every stride-th dispatch is timed with two reads of its own,
// scaled by the stride. Call counts are exact either way.
//
// A component unregistered while attached folds its seconds into its
// type's row. The profiler is SCRATCH in the checkpoint model:
// Simulator::restore() restarts an attached profiler's window, so
// post-restore reports cover only the replayed region.
#pragma once

#include <chrono>
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
  double settle_seconds = 0.0;  ///< measured (stride-scaled when sampling)
  double commit_seconds = 0.0;  ///< measured (stride-scaled when sampling)
  double settle_share = 0.0;    ///< of total settle time
  double commit_share = 0.0;    ///< of total commit time
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
/// (seconds, then exact eval count as the deterministic tie-break), plus
/// the top-N costliest instances.
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
  using Clock = std::chrono::steady_clock;

  /// stride >= 1: time every stride-th dispatch (1 = every dispatch).
  explicit PhaseProfiler(std::uint32_t stride = 1) noexcept
      : stride_(stride == 0 ? 1 : stride), countdown_(1) {}

  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }

  /// Opens a settle or commit phase's read chain and returns the reading
  /// (a zero time point at stride > 1 unless `need_time`). Also tracks
  /// components registered since the last phase, now fully constructed,
  /// so their type is known if they are unregistered later.
  Clock::time_point open_phase(const std::vector<sim::Component*>& components,
                               bool need_time) {
    if (baseline_.size() != components.size()) track(components);
    if (stride_ != 1 && !need_time) return {};
    ++clock_reads_;
    return last_ = Clock::now();
  }

  /// Runs one eval/tick dispatch and adds its wall time to `time`, the
  /// component's settle or commit accumulator.
  template <typename Run>
  void dispatch(Clock::duration& time, Run&& run) {
    const bool timed = stride_ == 1 || open_sample();
    run();
    if (timed) {
      const Clock::time_point now = Clock::now();
      time += (now - last_) * stride_;
      last_ = now;
      ++clock_reads_;
      ++samples_;
    }
  }

  /// Starts a new window: zeroes the sample and read counts and takes
  /// the components' calls and seconds as the baseline report()
  /// subtracts. Simulator::set_profiler and Simulator::restore call this.
  void start(const std::vector<sim::Component*>& components);

  /// Folds an unregistering component's window seconds into its type's
  /// row (Simulator::unregister_component calls it).
  void retire(const sim::Component& c);

  /// Timed dispatches since start().
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }
  /// Clock reads since start(): at stride 1, one per dispatch plus one
  /// per opened phase; at stride > 1, two per sample (+ phase timing's).
  [[nodiscard]] std::uint64_t clock_reads() const noexcept { return clock_reads_; }

  /// Builds the ranked per-type report from `components` (pass
  /// Simulator::components()): their calls and seconds since start().
  [[nodiscard]] ProfileReport report(const std::vector<sim::Component*>& components,
                                     std::size_t top_n = 8) const;

 private:
  /// A component's calls and seconds: at start(), or since then.
  struct Usage {
    std::uint64_t evals = 0;
    std::uint64_t ticks = 0;
    Clock::duration settle{};
    Clock::duration commit{};
  };
  struct Baseline {
    Usage usage;
    std::string_view type;  ///< type_name(), read while fully constructed
  };

  /// Stride > 1: true, after a read that opens the sample, on every
  /// stride-th dispatch.
  bool open_sample() noexcept {
    if (--countdown_ != 0) return false;
    countdown_ = stride_;
    ++clock_reads_;
    last_ = Clock::now();
    return true;
  }
  /// Baselines components registered since start() at zero.
  void track(const std::vector<sim::Component*>& components);
  [[nodiscard]] Usage window(const sim::Component& c) const;

  std::uint32_t stride_;
  std::uint32_t countdown_;
  Clock::time_point last_{};
  std::uint64_t samples_ = 0;
  std::uint64_t clock_reads_ = 0;
  /// Exactly the registered components once a phase opens: retire()
  /// erases, track() adds, so a size mismatch means untracked ones.
  std::unordered_map<const sim::Component*, Baseline> baseline_;
  std::map<std::string, Usage, std::less<>> retired_;  ///< by type
};

}  // namespace mte::obs
