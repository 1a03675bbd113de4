// Static netlist analyzer: the ahead-of-time mirror of what elaboration
// and the event-driven settle kernel discover dynamically. Where the
// kernel finds order-sensitive combinational cycles by Tarjan-SCC over
// live processes and demotes to the reference order mid-run, analyze()
// predicts them from the netlist alone — in milliseconds, before a DSE
// campaign burns a slot on a broken design point.
//
// The check suite (stable codes; full table in README.md):
//   MTE001-006  wiring: unconnected/undriven ports, fanout without a
//               fork, multiple drivers, bad edge refs, duplicate names
//   MTE010/011  dead components: unreachable from every source /
//               unable to reach any sink
//   MTE020      storage-free combinational cycle (node granularity;
//               custom nodes count as combinational)
//   MTE021      multithreaded fork/join reconvergence under ready-aware
//               arbitration
//   MTE022      cross-component valid/ready feedback at port
//               granularity: legal but evaluation-order dependent (the
//               event kernel would demote on it)
//   MTE023      single-channel valid/ready feedback (speculative valid
//               meets a data-dependent ready); resolved iteratively
//   MTE030      structural deadlock: a feedback loop through a lazy
//               join can never fire (no initial tokens exist)
//   MTE031      reconvergent fork/join path-slack imbalance
//   MTE040-044  capacity/rate sanity: zero threads, hybrid pool K vs S,
//               K = 0 throughput cap, S = 1 design point, rate-0 ends
//   MTE050-054  static performance (opt-in via AnalysisOptions::perf):
//               aggregate/per-sink throughput bounds from the minimum
//               cycle ratio of the marked graph (analysis/perf.hpp),
//               per-thread caps, the bottleneck cycle with a buffer
//               fix-it, informational Bernoulli rate caps, and solver
//               self-check failures (non-convergence, Howard vs Karp)
//
// Node-type semantics — storage, token alignment, and the port-granular
// valid/ready arcs of each default component — live in one table,
// netlist/node_semantics.hpp, which the performance pass reads as well.
// Lazy joins couple each input's ready to the peer inputs' valids;
// ready-aware MEB/source arbitration couples valid back to downstream
// ready; every buffer flavour drives its input ready from registered
// state, so EBs, MEBs and var-latency units cut the combinational paths.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "mt/arbiter.hpp"
#include "netlist/netlist.hpp"

namespace mte::analysis {

struct AnalysisOptions {
  /// Arbitration policy the netlist will elaborate under. Ready-aware
  /// policies make MEB/source valid depend on downstream ready
  /// (speculative grant), which is what closes the MTE021/022 cycles;
  /// the oblivious TDM arbiter has none of that coupling.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;

  /// Hybrid MEB shared-pool size K (ElaborationOptions::meb_shared_slots).
  /// Enables the MTE041/042 pool-capacity checks when set.
  std::optional<std::size_t> meb_shared_slots;

  /// Runs the static performance pass (analysis/perf.hpp) and emits the
  /// MTE050-054 diagnostics. Off by default: the cycle-ratio solve costs
  /// more than every structural check combined, and the bounds are only
  /// meaningful on netlists that already pass the wiring checks.
  bool perf = false;
};

/// Runs every check and returns the deterministic report.
/// CircuitBuilder::build() refuses a netlist whose report has errors.
[[nodiscard]] AnalysisReport analyze(const netlist::Netlist& net,
                                     const AnalysisOptions& options = {});

/// The checks that decide whether a netlist can elaborate at all: names
/// and wiring (MTE001-006), storage-free cycles (MTE020) and, under a
/// ready-aware `arbiter`, multithreaded fork/join reconvergence
/// (MTE021). The same code and diagnostics as analyze(), minus every
/// check that cannot be an error here; Elaboration refuses a netlist
/// whose report is not empty. Accepts what analyze() flags but a
/// simulation can still run, e.g. the MTE030 join-feedback deadlock.
[[nodiscard]] AnalysisReport elaboration_errors(const netlist::Netlist& net,
                                                mt::ArbiterKind arbiter);

/// A fork whose arms reconverge at a join: two or more of the join's
/// inputs are fed through distinct paths from the same fork. Computed
/// for any netlist (the multithreaded gate and the hazard severity live
/// in the callers); only divergence points are reported — a fork whose
/// paths all run through a later common fork is dropped.
struct ReconvergentPair {
  std::size_t fork_id = 0;
  std::size_t join_id = 0;
};

/// Shared implementation behind the MTE021 check and the MTE031 slack
/// check.
[[nodiscard]] std::vector<ReconvergentPair> reconvergent_pairs(
    const netlist::Netlist& net);

}  // namespace mte::analysis
