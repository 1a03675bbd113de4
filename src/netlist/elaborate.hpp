// Elaboration: turns an abstract elastic netlist into a live, runnable
// Simulator. A single-thread netlist elaborates to the elastic:: base
// primitives; a multithreaded netlist (after to_multithreaded) elaborates
// to MEBs and M- operators. Tokens are 64-bit words; function and branch
// nodes resolve their behaviour through a FunctionRegistry by name, and
// every node resolves its hardware through a ComponentFactory — the
// extensible registry that makes new primitives a registration, not a
// code change.
//
// Besides the boundary source/sink handles, an Elaboration registers every
// channel with the simulator's transfer counters
// (Simulator::count_transfers): probe("node:port") (or probe("node") for
// single-output drivers) returns the channel's sim::ChannelCounters —
// per-thread throughput and backpressure wait statistics, uniformly for
// single-thread and multithreaded designs. The kernel updates the counters
// from the settled handshakes, so observation costs no eval and no tick.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "mt/meb_variant.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "netlist/component_factory.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"

namespace mte::netlist {

using Word = std::uint64_t;

/// Named behaviours for function and branch nodes.
class FunctionRegistry {
 public:
  void add_fn(const std::string& name, std::function<Word(Word)> fn) {
    fns_[name] = std::move(fn);
  }
  void add_pred(const std::string& name, std::function<bool(Word)> pred) {
    preds_[name] = std::move(pred);
  }

  [[nodiscard]] std::function<Word(Word)> fn(const std::string& name) const;
  [[nodiscard]] std::function<bool(Word)> pred(const std::string& name) const;

  /// id/inc/dec/square/double functions; even/odd/nonzero predicates.
  [[nodiscard]] static FunctionRegistry with_defaults();

 private:
  std::map<std::string, std::function<Word(Word)>> fns_;
  std::map<std::string, std::function<bool(Word)>> preds_;
};

struct ElaborationOptions {
  /// The settle kernel the elaborated Simulator runs on. Defaults to the
  /// event-driven worklist kernel; select sim::KernelKind::kNaive to run
  /// on the reference kernel (e.g. as the oracle in equivalence tests).
  sim::KernelKind kernel = sim::KernelKind::kEventDriven;

  /// Arbitration policy instantiated in every arbitrated multithreaded
  /// component (MEBs, MtSource). One of the DSE sweep axes.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;

  /// When set, every buffer node of a multithreaded netlist elaborates to
  /// a HybridMeb with this many dynamically shared slots (S main + K
  /// shared) instead of the netlist's full/reduced MEB kind — the
  /// per-stage buffer-capacity axis of the DSE engine.
  std::optional<std::size_t> meb_shared_slots;
};

/// The elaborated design: owns the simulator and exposes uniform handles —
/// boundary components for workload configuration, per-channel counters
/// for observation, and typed channel/MEB access for detailed inspection.
class Elaboration {
 public:
  // Both constructors first run analysis::elaboration_errors under the
  // options' arbiter and throw ElaborationError with its [MTExxx] report
  // when it is not empty (bad references, duplicate names, unconnected
  // ports, bufferless cycles, hazardous MT reconvergence).

  /// Elaborates with the built-in primitive set.
  Elaboration(const Netlist& netlist, const FunctionRegistry& registry);
  /// Elaborates with a custom (usually extended) factory.
  Elaboration(const Netlist& netlist, const FunctionRegistry& registry,
              const ComponentFactory& factory, ElaborationOptions options = {});

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] bool is_multithreaded() const noexcept { return multithreaded_; }

  /// The options this design was elaborated with; node builders consult
  /// them (arbiter policy, hybrid-MEB capacity override).
  [[nodiscard]] const ElaborationOptions& options() const noexcept { return options_; }

  // Single-thread boundary handles (!is_multithreaded()).
  [[nodiscard]] elastic::Source<Word>& source(const std::string& name);
  [[nodiscard]] elastic::Sink<Word>& sink(const std::string& name);

  // Multithreaded boundary handles (is_multithreaded()).
  [[nodiscard]] mt::MtSource<Word>& mt_source(const std::string& name);
  [[nodiscard]] mt::MtSink<Word>& mt_sink(const std::string& name);

  // --- uniform observation ------------------------------------------------
  // Channels are named after their driving endpoint, "node:port"; the bare
  // node name is accepted whenever the driver has exactly one output.

  /// Per-channel statistics: throughput, per-thread rates, backpressure
  /// wait histogram. Works identically for both elaboration modes.
  [[nodiscard]] const sim::ChannelCounters& probe(const std::string& channel) const;

  /// All channel names, in edge order (full "node:port" form).
  [[nodiscard]] std::vector<std::string> channel_names() const;

  /// Convenience: probe(channel).throughput() / .mean_wait().
  [[nodiscard]] double throughput(const std::string& channel) const;
  [[nodiscard]] double mean_wait(const std::string& channel) const;

  /// A plain-text table of every channel's tokens, throughput and wait
  /// statistics — ready to print after a run.
  [[nodiscard]] std::string stats_report() const;

  // Typed channel access, e.g. for timeline observers.
  [[nodiscard]] elastic::Channel<Word>& channel(const std::string& name);
  [[nodiscard]] mt::MtChannel<Word>& mt_channel(const std::string& name);

  /// The MEB elaborated for a buffer node (is_multithreaded() only).
  [[nodiscard]] const mt::AnyMeb<Word>& meb(const std::string& node_name) const;

  // --- runtime robustness -------------------------------------------------
  /// Watches every channel of this design with `monitor` (handshake
  /// invariants MTE101..MTE104, plus MTE105 token conservation across each
  /// MEB) and attaches it to the simulator. The monitor must outlive the
  /// attachment (or be detached with simulator().set_monitor(nullptr)).
  /// Monitors read settled wires outside the eval phase only: they add
  /// zero settle evaluations and zero ticks.
  void attach_monitor(sim::ProtocolMonitor& monitor);

  /// Binds every channel's wires into `injector` (by channel name, same
  /// "node:port" scheme as probe()) and attaches it to the simulator.
  /// Injected faults are visible to the channel counters.
  void bind_faults(sim::FaultInjector& injector);

  // --- factory-facing registration ---------------------------------------
  // Node builders call these to publish handles under the node's name.
  void expose_source(const std::string& name, elastic::Source<Word>& src);
  void expose_sink(const std::string& name, elastic::Sink<Word>& snk);
  void expose_mt_source(const std::string& name, mt::MtSource<Word>& src);
  void expose_mt_sink(const std::string& name, mt::MtSink<Word>& snk);
  void expose_meb(const std::string& name, mt::AnyMeb<Word> meb);
  /// ST buffer builders publish an occupancy accessor so attach_monitor
  /// can add an MTE105 token-conservation watch across the buffer.
  void expose_buffer(const std::string& name, std::function<int()> occupancy);

 private:
  void elaborate_single(const Netlist& netlist, const FunctionRegistry& registry,
                        const ComponentFactory& factory);
  void elaborate_multi(const Netlist& netlist, const FunctionRegistry& registry,
                       const ComponentFactory& factory);
  [[nodiscard]] const std::string& resolve_channel(const std::string& name) const;

  sim::Simulator sim_;
  ElaborationOptions options_;
  std::size_t threads_ = 1;
  bool multithreaded_ = false;
  std::map<std::string, elastic::Source<Word>*> sources_;
  std::map<std::string, elastic::Sink<Word>*> sinks_;
  std::map<std::string, mt::MtSource<Word>*> mt_sources_;
  std::map<std::string, mt::MtSink<Word>*> mt_sinks_;
  std::map<std::string, mt::AnyMeb<Word>> mebs_;
  std::map<std::string, std::function<int()>> buffer_occupancy_;
  std::map<std::string, elastic::Channel<Word>*> channels_;
  std::map<std::string, mt::MtChannel<Word>*> mt_channels_;
  std::map<std::string, const sim::ChannelCounters*> counters_;
  std::map<std::string, std::string> channel_aliases_;  // "node" -> "node:0"
  std::vector<std::string> channel_order_;

  // Endpoint records for the robustness layer: which nodes drive and
  // consume each channel (violation locus, wait-for-graph nodes), and each
  // buffer node's in/out channels (MEB conservation watch).
  struct ChannelEnds {
    std::string producer;
    std::string producer_port;
    std::string consumer;
    bool producer_is_buffer = false;
    bool consumer_is_buffer = false;
  };
  struct BufferIo {
    std::string in_channel;
    std::string out_channel;
  };
  std::map<std::string, ChannelEnds> channel_ends_;
  std::map<std::string, BufferIo> buffer_io_;
};

}  // namespace mte::netlist
