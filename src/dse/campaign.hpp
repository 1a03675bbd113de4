// CampaignRunner: executes every point of a SweepSpec and collects the
// records a Report is built from.
//
// Points are independent simulations (each gets its own Simulator and
// components), so the runner fans them out over a pool of host threads:
// workers claim the next unevaluated index from an atomic counter, run it
// to completion, and write the record into its pre-assigned slot. Results
// are therefore ordered by point index and bit-identical for any worker
// count — determinism comes from the per-point seed, not from scheduling.
// A point that throws is captured as a failed record (error string set)
// rather than aborting the campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"

namespace mte::dse {

/// One evaluated (or failed) design point.
struct PointRecord {
  SweepPoint point;
  WorkloadResult result;
  std::uint64_t seed = 0;   ///< the per-point seed the workload ran with
  double les = 0;           ///< total logic elements (area model)
  double mhz = 0;           ///< modelled design frequency
  /// Static throughput upper bound (analysis::windowed_bound over the
  /// workload's StaticModel at the campaign's cycle budget); < 0 when the
  /// workload has no make_netlist hook and the bound is unavailable.
  double static_bound = -1.0;
  /// Failure classification: "" (ok), "exception" (evaluation threw),
  /// "violation" (protocol monitor recorded violations), "watchdog"
  /// (the no-progress watchdog fired), or "screened" (the screening
  /// pre-pass proved the point dominated without simulating it). The
  /// middle two only arise under a RobustnessPolicy and are quarantined,
  /// not campaign-fatal.
  std::string failure_kind;
  std::string error;        ///< non-empty when evaluation failed

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }

  /// Throughput per kilo-LE — the Pareto ratio metric.
  [[nodiscard]] double throughput_per_kle() const noexcept {
    return les > 0 ? result.throughput / (les / 1000.0) : 0.0;
  }
};

/// Checkpoint/restore warm-starts. A campaign's points often share an
/// expensive warm-up prefix (filling pipelines, reaching steady state);
/// with a policy set, a cold run drops one snapshot per point at the
/// warmup cycle, and a later run with restore=true resumes each point
/// from its snapshot instead of re-simulating the prefix. Because channel
/// statistics restore with the snapshot, the warm report is byte-identical
/// to the cold one. Only workloads with a make_session hook participate;
/// run-to-completion engines (md5, processor) evaluate normally.
struct CheckpointPolicy {
  std::string dir;        ///< snapshot directory (must exist); empty = off
  sim::Cycle warmup = 0;  ///< prefix cycles the snapshot covers
  bool restore = false;   ///< true: warm-start from existing snapshots

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty() && warmup > 0; }

  /// "<dir>/<label with / -> _>_seed<seed>_w<warmup>.snap" — the label,
  /// seed and warmup cycle fully key the simulation prefix.
  [[nodiscard]] std::string snapshot_path(const SweepPoint& point,
                                          std::uint64_t seed) const;
};

/// Campaign hardening: runs every session-capable point with protocol
/// monitors attached and (optionally) a per-point no-progress deadline.
/// A point that violates the handshake contract or trips the watchdog is
/// QUARANTINED: it becomes a failed record carrying the violation text
/// (failure_kind "violation"/"watchdog") plus a committed repro artifact,
/// and the campaign's exit disposition treats it as handled — reports
/// stay byte-identical for the surviving points because monitors never
/// write wires or consume randomness. Workloads without a make_session
/// hook (md5, processor) evaluate normally.
struct RobustnessPolicy {
  bool monitors = false;     ///< attach a ProtocolMonitor to every channel
  sim::Cycle watchdog = 0;   ///< per-point no-progress deadline; 0 = off
  std::string artifact_dir;  ///< repro bundles per quarantined point; "" = none

  [[nodiscard]] bool enabled() const noexcept {
    return monitors || watchdog > 0;
  }

  /// "<artifact_dir>/<label with / -> _>_seed<seed>" — the per-point
  /// directory the repro artifact and post-mortem bundle land in.
  [[nodiscard]] std::string point_dir(const SweepPoint& point,
                                      std::uint64_t seed) const;
};

/// Selects a 1/count slice of a campaign: the points whose dense index i
/// satisfies i % count == index. Because every point is self-seeded from
/// (campaign seed, index), a shard needs nothing but this filter — shard
/// reports carry the original indices and dse::merge_* reassembles them
/// into the byte-identical unsharded report.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool covers(std::size_t point_index) const noexcept {
    return count <= 1 || point_index % count == index;
  }
};

class CampaignRunner {
 public:
  /// Copies the set: a runner constructed from a temporary WorkloadSet
  /// must stay valid for its whole lifetime.
  explicit CampaignRunner(const WorkloadSet& workloads = WorkloadSet::builtin())
      : workloads_(workloads) {}

  /// Enumerates the spec and evaluates every point of `shard` (default:
  /// all of them) on `workers` host threads (1 = serial in the calling
  /// thread; 0 = hardware concurrency). The returned vector is ordered by
  /// point index; with a non-trivial shard it contains only that shard's
  /// points (their .point.index values keep the campaign-wide numbering).
  ///
  /// With screen = true the runner walks points serially in index order
  /// and skips simulating any point whose static throughput bound is
  /// dominated by an already-simulated point: some earlier ok record has
  /// measured throughput >= this point's static bound at equal-or-lower
  /// area (both compared at the report's rendered precision, %.6f / %.1f,
  /// so screening decisions survive a CSV round-trip). Skipped points
  /// become failure_kind "screened" records — excluded from the Pareto
  /// frontier by construction, which the bound's soundness guarantees
  /// they could never have joined. Screening requires workers <= 1 and a
  /// trivial shard (the decision depends on earlier results).
  [[nodiscard]] std::vector<PointRecord> run(const SweepSpec& spec,
                                             std::size_t workers = 1,
                                             const Shard& shard = {},
                                             const CheckpointPolicy& ckpt = {},
                                             const RobustnessPolicy& robust = {},
                                             bool screen = false) const;

  /// Evaluates a single already-enumerated point (the serial building
  /// block run() parallelizes).
  [[nodiscard]] PointRecord run_point(const SweepPoint& point, const SweepSpec& spec,
                                      const CheckpointPolicy& ckpt = {},
                                      const RobustnessPolicy& robust = {}) const;

 private:
  WorkloadSet workloads_;
};

}  // namespace mte::dse
