// Component: base class of everything that lives inside a Simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace mte::sim {

class ChangeTracker;
class Component;
class Simulator;
class SnapshotReader;
class SnapshotWriter;

/// One schedulable unit of a component's combinational logic — the node
/// granularity of the event-driven kernel's dependency graph.
///
/// A single-process component (the default) has exactly one Process that
/// stands for its whole eval(). Components that split their evaluation
/// (see Component::process_count / eval_process and TwoPhaseComponent)
/// get one Process per phase, so a forward (valid/data) process and a
/// backward (ready) process levelize — and re-run — independently.
/// Slots are materialized lazily by the Simulator (process_count() is
/// virtual, so it cannot be called from the Component constructor) and
/// their addresses are stable for the component's lifetime: wires record
/// their readers and writer as Process pointers.
struct Process {
  Component* owner = nullptr;
  std::uint32_t index = 0;        ///< which of owner's processes this is

  // --- event-kernel bookkeeping (owned by Simulator / ChangeTracker) ------
  bool dirty = false;             ///< on the dirty worklist right now
  bool reads_wires = false;       ///< observed reading any wire during eval
  std::uint32_t level = 0;        ///< topological level (levelization pass)
  double work = 1.0;              ///< 1/process_count (settle_work weight)
};

/// A synchronous circuit element.
///
/// Lifecycle per clock cycle:
///   1. eval()  — compute combinational outputs from input wires and
///                registered state. Called repeatedly until all wires
///                settle; it must therefore be idempotent.
///   2. tick()  — commit sequential state from the settled wire values.
///                Must never write a wire.
///
/// Components register themselves with the Simulator passed at
/// construction and unregister on destruction. A component must therefore
/// be destroyed BEFORE its Simulator (automatic for Simulator::make
/// ownership and for stack objects declared after the Simulator): the
/// destructor calls back into the Simulator to unregister, so destroying
/// a component after its Simulator is undefined behavior. The same
/// ordering applies to wires, which call back into the ChangeTracker.
class Component {
 public:
  /// Every process bit set: the conservative "reseed everything" mask.
  static constexpr std::uint32_t kAllProcesses = 0xffffffffu;
  /// Hard cap on process_count() (seed masks are 32-bit).
  static constexpr std::size_t kMaxProcesses = 32;

  Component(Simulator& sim, std::string name);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Re-initialize registered state to its power-on value.
  virtual void reset() {}

  /// Combinational evaluation; idempotent; runs >= 1 time per cycle.
  /// The naive kernel (and any code outside the event kernel) always
  /// calls eval(); a multi-process component must therefore implement it
  /// as the composition of all its processes.
  virtual void eval() = 0;

  /// Sequential commit at the clock edge; must not write wires.
  virtual void tick() = 0;

  // --- checkpointing (Simulator::save/restore) ------------------------------
  /// Serializes every piece of registered state reset() reinitializes —
  /// register contents, occupancy/FSM states, arbiter pointers, RNG
  /// streams, statistics counters — into the component's snapshot frame.
  /// Scratch recomputed by eval() on settled wires must NOT be written.
  /// The frame is CRC'd and length-checked: load_state must consume
  /// exactly the bytes save_state wrote, so a forgotten field fails
  /// loudly at restore, never silently. Default: stateless.
  virtual void save_state(SnapshotWriter& /*w*/) const {}

  /// Restores the state written by save_state, in the same order.
  virtual void load_state(SnapshotReader& /*r*/) {}

  // --- multi-process interface (event-driven kernel) ------------------------
  /// Number of independently schedulable combinational processes. The
  /// default single process is today's semantics: eval_process(0) ==
  /// eval(). Components whose eval mixes the forward (valid/data) and
  /// backward (ready) directions can split into one process per
  /// direction so pass-through chains levelize acyclically; each process
  /// must write a disjoint wire set and be a pure function of registered
  /// state and the wires it reads (the kernel discovers the read set per
  /// process, exactly as it does per component). Must be in
  /// [1, kMaxProcesses] and constant for the component's lifetime.
  [[nodiscard]] virtual std::size_t process_count() const noexcept { return 1; }

  /// Evaluates one process; eval_process(i) for all i must together
  /// produce exactly the wire writes of eval(). Default: the whole eval.
  virtual void eval_process(std::size_t /*process*/) { eval(); }

  /// Declares whether this component does work at the clock edge: owns
  /// sequential state, draws from an RNG, records statistics, or checks
  /// protocol invariants in tick(). Sequential components are ticked and
  /// re-evaluated every cycle by the event-driven kernel. Purely
  /// combinational components — empty tick(), eval() a function of input
  /// wires only — override this to false; the event-driven kernel then
  /// skips their tick() entirely and re-runs eval() only when a wire they
  /// read changes. Defaults to true, which is always safe.
  [[nodiscard]] virtual bool is_sequential() const noexcept { return true; }

  // --- tick elision (event-driven kernel) -----------------------------------
  /// Queried on the settled state just before the clock edge: returns
  /// true when calling tick() right now would change NOTHING observable —
  /// no registered state (including arbiter pointers and RNG streams), no
  /// statistics, no protocol checks whose skipping could mask a
  /// violation the component owes its circuit. The event kernel then
  /// neither ticks the component nor reseeds its processes next cycle.
  /// For cost, the kernel only consults this query while the component's
  /// idle hint (set_tick_idle_hint from tick()) is raised — once raised
  /// the query runs every cycle, so a component wakes the cycle its
  /// inputs make tick() meaningful again. Default false (always tick),
  /// which is always safe.
  [[nodiscard]] virtual bool tick_quiescent() const { return false; }

  /// Whether the kernel should bother asking tick_quiescent() before the
  /// next clock edge. Components that implement elision raise the hint
  /// from tick() when the edge they just committed did nothing (so the
  /// next one probably won't either); it costs non-elidable components
  /// nothing (the default-false hint skips the virtual query entirely).
  [[nodiscard]] bool tick_idle_hint() const noexcept { return tick_idle_hint_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Simulator& sim() const noexcept { return *sim_; }

  /// The component's type label for profiling/metrics attribution
  /// (obs::PhaseProfiler buckets settle/commit cost by this). Overrides
  /// must return a string with static lifetime — a literal such as
  /// "ElasticBuffer". The default groups unlabeled components together.
  [[nodiscard]] virtual std::string_view type_name() const noexcept {
    return "Component";
  }

  /// Kernel-maintained call counters (both kernels): how many times this
  /// component's eval()/eval_process() and tick() actually ran. The
  /// direct observable for tick-elision tests — a quiescent component's
  /// counters freeze.
  [[nodiscard]] std::uint64_t kernel_eval_calls() const noexcept { return eval_calls_; }
  [[nodiscard]] std::uint64_t kernel_tick_calls() const noexcept { return tick_calls_; }

 protected:
  /// Called from tick(): declares which processes' eval-visible outputs
  /// this edge may have changed — only those are reseeded into the next
  /// settle. Bit i covers process i; with a single process any nonzero
  /// mask seeds it. The kernel resets the mask to kAllProcesses before
  /// every tick, so not calling this is always safe.
  void set_tick_touched(std::uint32_t mask) noexcept { kernel_seed_mask_ = mask; }

  /// Called from tick(): raises/clears the idle hint (see
  /// tick_idle_hint). Raise it when this edge committed the identity.
  void set_tick_idle_hint(bool idle) noexcept { tick_idle_hint_ = idle; }

 private:
  friend class ChangeTracker;
  friend class Simulator;

  Simulator* sim_;
  std::string name_;
  bool tick_idle_hint_ = false;

  // --- event-kernel bookkeeping (owned by Simulator) ------------------------
  std::unique_ptr<Process[]> kernel_procs_;  // null until materialized
  std::uint32_t kernel_proc_count_ = 0;      // valid when kernel_procs_ set
  std::uint32_t kernel_proc_base_ = 0;       // scratch id base (levelization)
  std::uint32_t kernel_seed_mask_ = kAllProcesses;  // processes to reseed
  std::uint64_t eval_calls_ = 0;
  std::uint64_t tick_calls_ = 0;
};

/// Process indices/bits of the canonical two-phase split.
inline constexpr std::size_t kForwardProcess = 0;   ///< valid/data phase
inline constexpr std::size_t kBackwardProcess = 1;  ///< ready phase
inline constexpr std::uint32_t kForwardBit = 1u << kForwardProcess;
inline constexpr std::uint32_t kBackwardBit = 1u << kBackwardProcess;

/// Helper base (CRTP) for components split into the canonical two
/// processes of elastic pass-through logic: a forward process driving
/// valid/data wires and a backward process driving ready wires. The
/// derived class implements non-virtual eval_forward()/eval_backward()
/// instead of eval() (and befriends this base so they can stay private);
/// CRTP lets the single eval_process() dispatch inline both phase bodies
/// — the settle loop pays one virtual call per scheduled unit, same as a
/// plain component.
template <typename Derived>
class TwoPhaseComponent : public Component {
 public:
  using Component::Component;

  [[nodiscard]] std::size_t process_count() const noexcept final { return 2; }

  void eval_process(std::size_t process) final {
    Derived& d = static_cast<Derived&>(*this);
    if (process == kForwardProcess) {
      d.eval_forward();
    } else {
      d.eval_backward();
    }
  }

  /// The full evaluation is always the two phases back to back (their
  /// wire sets are disjoint, so the order is immaterial).
  void eval() final {
    Derived& d = static_cast<Derived&>(*this);
    d.eval_forward();
    d.eval_backward();
  }
};

}  // namespace mte::sim
