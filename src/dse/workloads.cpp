#include "dse/workloads.hpp"

#include <stdexcept>
#include <utility>

#include "area/designs.hpp"
#include "cpu/kernels.hpp"
#include "cpu/processor.hpp"
#include "md5/md5_circuit.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"

namespace mte::dse {

KernelMetrics KernelMetrics::capture(const sim::Simulator& sim) {
  KernelMetrics m;
  m.settle_work = sim.settle_work();
  m.sched_evals = sim.eval_count();
  m.ticks = sim.tick_count();
  m.elided_ticks = sim.elided_tick_count();
  m.demoted_to_naive = sim.demoted_to_naive();
  return m;
}

namespace {

/// Token width assumed for the abstract netlist workloads' area model.
constexpr unsigned kTokenBits = 64;

netlist::ElaborationOptions options_for(const SweepPoint& p) {
  netlist::ElaborationOptions o;
  o.kernel = p.kernel;
  o.arbiter = p.arbiter;
  if (p.variant == MebVariant::kHybrid) o.meb_shared_slots = p.shared_slots;
  return o;
}

/// The netlist-level MEB kind; ignored by elaboration when the hybrid
/// capacity override is active.
mt::MebKind base_kind(MebVariant v) {
  return v == MebVariant::kReduced ? mt::MebKind::kReduced : mt::MebKind::kFull;
}

}  // namespace

/// Source and sink nodes are testbench boundary and excluded, as the
/// paper excludes its block-RAM-backed I/O.
area::DesignEstimate netlist_area(const netlist::Netlist& net, const SweepPoint& p,
                                  const area::CostModel& model) {
  const unsigned s = static_cast<unsigned>(p.threads);
  // Policy cost on top of the reference round-robin arbiter, per
  // arbitrated buffer stage.
  const double arbiter_delta =
      model.arbiter_les(s, p.arbiter) - model.arbiter_les(s);
  area::DesignEstimate d;
  d.name = p.label();
  for (const auto& n : net.nodes()) {
    using netlist::NodeType;
    switch (n.type) {
      case NodeType::kBuffer: {
        area::AreaItem item;
        switch (p.variant) {
          case MebVariant::kFull:
            item = model.full_meb(n.name, kTokenBits, s);
            break;
          case MebVariant::kReduced:
            item = model.reduced_meb(n.name, kTokenBits, s);
            break;
          case MebVariant::kHybrid:
            item = model.hybrid_meb(n.name, kTokenBits, s,
                                    static_cast<unsigned>(p.shared_slots));
            break;
        }
        item.les += arbiter_delta;
        d.items.push_back(item);
        break;
      }
      case NodeType::kFunction:
        d.items.push_back(model.comb(n.name, kTokenBits, 0, 2));
        break;
      case NodeType::kVarLatency:
        d.items.push_back(model.comb(n.name, 0, 1.5 * kTokenBits, 3));
        break;
      case NodeType::kFork:
      case NodeType::kJoin:
      case NodeType::kMerge:
      case NodeType::kBranch:
        d.items.push_back(model.m_operator(n.name, s));
        break;
      case NodeType::kSource:
      case NodeType::kSink:
      case NodeType::kCustom:
        break;  // testbench boundary / externally modelled
    }
  }
  return d;
}

namespace {

/// Session over an elaborated netlist workload: holds the netlist and the
/// elaboration alive, exposes the simulator for the runner to drive (or
/// checkpoint/restore), and reads the channel counters in finish().
class NetlistSession : public WorkloadSession {
 public:
  NetlistSession(netlist::Netlist net, const SweepPoint& p, std::string out_channel,
                 std::string in_channel)
      : net_(std::move(net)),
        elab_(net_, netlist::FunctionRegistry::with_defaults(),
              netlist::ComponentFactory::defaults(), options_for(p)),
        out_channel_(std::move(out_channel)),
        in_channel_(std::move(in_channel)) {}

  sim::Simulator& simulator() override { return elab_.simulator(); }
  netlist::Elaboration* elaboration() override { return &elab_; }

  WorkloadResult finish(const SweepPoint& p, sim::Cycle cycles) override {
    WorkloadResult r;
    r.cycles = cycles;
    r.throughput = elab_.probe(out_channel_).throughput();
    r.tokens = elab_.probe(out_channel_).count();
    r.mean_wait = elab_.probe(in_channel_).mean_wait();
    r.area = netlist_area(net_, p, area::CostModel{});
    r.kernel = KernelMetrics::capture(elab_.simulator());
    return r;
  }

 private:
  netlist::Netlist net_;
  netlist::Elaboration elab_;
  std::string out_channel_;
  std::string in_channel_;
};

/// fig1: one MEB channel, every thread injecting at a fractional rate —
/// utilization rises with S as threads fill each other's empty slots.
std::unique_ptr<WorkloadSession> session_fig1(const SweepPoint& p,
                                              sim::Cycle /*cycles*/,
                                              std::uint64_t seed) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb") >> b.sink("sink");
  b.then_multithreaded(p.threads, base_kind(p.variant));
  auto session = std::make_unique<NetlistSession>(b.build(), p, "meb", "src");
  auto& src = session->elaboration()->mt_source("src");
  for (std::size_t t = 0; t < p.threads; ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
    src.set_rate(t, 0.7, seed + 13 * t);
  }
  session->simulator().reset();
  return session;
}

/// fig5: two-stage MEB pipeline; every thread but thread 0 is blocked at
/// the sink for the middle 40 % of the run (the paper's Fig. 5 corner
/// case). Full MEBs keep the survivor at full rate; the reduced MEB caps
/// it near 50 %, which is exactly the throughput-vs-area trade-off the
/// Pareto frontier should expose.
std::unique_ptr<WorkloadSession> session_fig5(const SweepPoint& p, sim::Cycle cycles,
                                              std::uint64_t seed) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb0") >> b.buffer("meb1") >> b.sink("sink");
  b.then_multithreaded(p.threads, base_kind(p.variant));
  auto session = std::make_unique<NetlistSession>(b.build(), p, "meb1", "src");
  auto& src = session->elaboration()->mt_source("src");
  auto& sink = session->elaboration()->mt_sink("sink");
  for (std::size_t t = 0; t < p.threads; ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
    src.set_rate(t, 1.0, seed + 13 * t);
  }
  const sim::Cycle stall_from = cycles / 5;
  const sim::Cycle stall_to = stall_from + (2 * cycles) / 5;
  for (std::size_t t = 1; t < p.threads; ++t) {
    sink.add_stall_window(t, stall_from, stall_to);
  }
  session->simulator().reset();
  return session;
}

/// deadlock: the MTE030 fixture shape (a join whose second input is fed
/// from its own downstream fork) under the MT transform — an intentional
/// structural deadlock for exercising the campaign's watchdog quarantine.
/// Without a watchdog it runs its cycle budget producing zero tokens;
/// with RobustnessPolicy::watchdog set it becomes a quarantined failed
/// record with a wait-for-graph diagnosis. The oblivious arbiter is
/// forced at construction: the fork/join reconvergence would otherwise be
/// rejected at elaboration before the deadlock is ever reached.
std::unique_ptr<WorkloadSession> session_deadlock(const SweepPoint& p,
                                                  sim::Cycle /*cycles*/,
                                                  std::uint64_t /*seed*/) {
  using netlist::Node;
  netlist::Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto j = n.add(Node::join("j", 2));
  const auto b0 = n.add(Node::buffer("b0"));
  const auto f = n.add(Node::fork("f", 2));
  const auto snk = n.add(Node::sink("snk"));
  const auto b1 = n.add(Node::buffer("b1"));
  n.connect(src, 0, j, 0);
  n.connect(j, 0, b0, 0);
  n.connect(b0, 0, f, 0);
  n.connect(f, 0, snk, 0);
  n.connect(f, 1, b1, 0);
  n.connect(b1, 0, j, 1);
  SweepPoint p2 = p;
  p2.arbiter = mt::ArbiterKind::kOblivious;
  auto session = std::make_unique<NetlistSession>(
      n.to_multithreaded(p.threads, base_kind(p.variant)), p2, "b0", "src");
  auto& source = session->elaboration()->mt_source("src");
  for (std::size_t t = 0; t < p.threads; ++t) {
    source.set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
  }
  session->simulator().reset();
  return session;
}

// Static twins of the session builders: the same netlists, without the
// session-side dressing (generators, rates, stall windows) that only
// lowers measured throughput.
StaticModel netlist_fig1(const SweepPoint& p) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb") >> b.sink("sink");
  b.then_multithreaded(p.threads, base_kind(p.variant));
  return {b.build(), "sink"};
}

StaticModel netlist_fig5(const SweepPoint& p) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb0") >> b.buffer("meb1") >> b.sink("sink");
  b.then_multithreaded(p.threads, base_kind(p.variant));
  return {b.build(), "sink"};
}

WorkloadResult run_deadlock(const SweepPoint& p, sim::Cycle cycles,
                            std::uint64_t seed) {
  auto session = session_deadlock(p, cycles, seed);
  session->simulator().run(cycles);
  return session->finish(p, cycles);
}

WorkloadResult run_fig1(const SweepPoint& p, sim::Cycle cycles, std::uint64_t seed) {
  auto session = session_fig1(p, cycles, seed);
  session->simulator().run(cycles);
  return session->finish(p, cycles);
}

WorkloadResult run_fig5(const SweepPoint& p, sim::Cycle cycles, std::uint64_t seed) {
  auto session = session_fig5(p, cycles, seed);
  session->simulator().run(cycles);
  return session->finish(p, cycles);
}

/// md5: the complete Sec. V-A engine hashing one message per thread to
/// digest completion; throughput is blocks per cycle.
WorkloadResult run_md5(const SweepPoint& p, sim::Cycle /*cycles*/,
                       std::uint64_t seed) {
  md5::Md5Circuit circuit(p.threads, base_kind(p.variant), p.kernel);
  for (std::size_t t = 0; t < p.threads; ++t) {
    circuit.set_message(t, std::string(96 + 16 * (t % 4),
                                       static_cast<char>('a' + (t + seed) % 26)) +
                               " dse thread " + std::to_string(t));
  }
  const sim::Cycle ran = circuit.run();
  if (ran == 0) throw std::runtime_error("md5 workload did not complete");
  const std::uint64_t blocks =
      static_cast<std::uint64_t>(circuit.feeder().rounds_of_blocks()) * p.threads;
  WorkloadResult r;
  r.cycles = ran;
  r.tokens = blocks;
  r.throughput = static_cast<double>(blocks) / static_cast<double>(ran);
  r.mean_wait = 0;  // the engine has no counted channels
  r.area = area::md5_design(area::CostModel{}, static_cast<unsigned>(p.threads),
                            base_kind(p.variant));
  r.kernel = KernelMetrics::capture(circuit.simulator());
  return r;
}

/// processor: the Sec. V-B barrel processor running one small kernel per
/// thread to halt; throughput is IPC.
WorkloadResult run_processor(const SweepPoint& p, sim::Cycle /*cycles*/,
                             std::uint64_t seed) {
  cpu::ProcessorConfig cfg;
  cfg.threads = p.threads;
  cfg.meb_kind = base_kind(p.variant);
  cfg.kernel = p.kernel;
  cfg.seed = seed;
  cfg.mul_latency = 3;
  cfg.imem_latency_lo = 1;
  cfg.imem_latency_hi = 2;
  cfg.dmem_miss_latency = 6;
  cpu::Processor proc(cfg);
  for (std::size_t t = 0; t < p.threads; ++t) {
    switch (t % 4) {
      case 0: proc.load_program(t, cpu::kernels::dot_product(16, 0, 100)); break;
      case 1: proc.load_program(t, cpu::kernels::sieve(40)); break;
      case 2: proc.load_program(t, cpu::kernels::fibonacci(32)); break;
      default: proc.load_program(t, cpu::kernels::memcpy_words(16, 0, 200)); break;
    }
    for (int i = 0; i < 16; ++i) {
      proc.set_dmem(t, i, static_cast<std::uint32_t>(i + 1));
      proc.set_dmem(t, 100 + i, static_cast<std::uint32_t>(2 * i + 1));
    }
  }
  const sim::Cycle ran = proc.run();
  if (ran == 0) throw std::runtime_error("processor workload did not halt");
  WorkloadResult r;
  r.cycles = ran;
  r.tokens = proc.total_retired();
  r.throughput = proc.ipc();
  r.mean_wait = 0;  // the engine has no counted channels
  r.area = area::processor_design(area::CostModel{},
                                  static_cast<unsigned>(p.threads),
                                  base_kind(p.variant));
  r.kernel = KernelMetrics::capture(proc.simulator());
  return r;
}

}  // namespace

WorkloadSet& WorkloadSet::add(Workload w) {
  const std::string name = w.name;
  if (!by_name_.emplace(name, std::move(w)).second) {
    throw std::invalid_argument("WorkloadSet: duplicate workload '" + name + "'");
  }
  return *this;
}

bool WorkloadSet::contains(const std::string& name) const {
  return by_name_.count(name) != 0;
}

const Workload& WorkloadSet::at(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("WorkloadSet: unknown workload '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> WorkloadSet::names() const {
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [name, w] : by_name_) out.push_back(name);
  return out;
}

const WorkloadSet& WorkloadSet::builtin() {
  static const WorkloadSet set = [] {
    WorkloadSet s;
    s.add({"fig1", "one-MEB channel under fractional per-thread injection",
           WorkloadTraits{}, run_fig1, session_fig1, netlist_fig1});
    s.add({"fig5",
           "two-stage MEB pipeline with the all-but-one-thread blocked window",
           WorkloadTraits{}, run_fig5, session_fig5, netlist_fig5});
    s.add({"md5", "multithreaded elastic MD5 engine, run to digest completion",
           WorkloadTraits{.supports_hybrid = false, .supports_arbiter = false,
                          .supports_kernel = true},
           run_md5, nullptr, nullptr});
    s.add({"processor",
           "multithreaded pipelined elastic processor on barrel programs",
           WorkloadTraits{.supports_hybrid = false, .supports_arbiter = false,
                          .supports_kernel = true},
           run_processor, nullptr, nullptr});
    s.add({"deadlock",
           "intentional structural deadlock (MTE030 fixture) for watchdog "
           "quarantine testing",
           WorkloadTraits{.supports_hybrid = false, .supports_arbiter = false,
                          .supports_kernel = true},
           run_deadlock, session_deadlock, nullptr});
    return s;
  }();
  return set;
}

}  // namespace mte::dse
