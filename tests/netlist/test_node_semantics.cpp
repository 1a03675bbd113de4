// Port-dependency test for the node-semantics table
// (netlist/node_semantics.hpp): every NodeType that
// ComponentFactory::defaults() builds is elaborated between stub sources
// and sinks, and the test drives its boundary wires directly — input
// valid/data and output ready — calling only the component's own eval()
// and tick(). At each of a few hundred random registered states it flips
// one input-side wire at a time and records which output-side wires
// (output valid/data, input ready) change. The recorded arcs must equal
// the arcs the type's row declares: an observed arc the row lacks is an
// analyzer soundness bug (MTE022/023 would miss a feedback loop), and a
// declared arc never observed is a row that has drifted from its
// component.
//
// Value perturbation, not the kernel's discovered sensitivity
// (WireBase::writer/fanout): that works at process granularity, so a
// single-process Fork, Join or MtVarLatencyUnit would show spurious arcs.
//
// Allow-list — rows that are approximations on purpose, so the exact
// match does not apply:
//   - kCustom: no default component. Its row is a full crossbar, the
//     conservative reading of an unknown user primitive.
//   - The MT var-latency fast path (MtVarLatencyUnit::set_fast_predicate)
//     adds combinational arcs through an idle unit. It is opt-in at
//     configuration time and invisible to the netlist; the default build
//     has none, and the kVarLatency row describes the default build.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "netlist/elaborate.hpp"
#include "netlist/node_semantics.hpp"

namespace mte::netlist {
namespace {

constexpr NodeType kAllowListed[] = {NodeType::kCustom};
constexpr std::size_t kThreads = 3;

struct Arc {
  PortSignal from;
  PortSignal to;
  auto operator<=>(const Arc&) const = default;
};

std::string name(const PortSignal& s) {
  return std::string(s.ready ? "R(" : "V(") + (s.output ? "out" : "in") +
         std::to_string(s.port) + ")";
}

std::string render(const std::set<Arc>& arcs) {
  std::string out;
  for (const Arc& a : arcs) out += " " + name(a.from) + "->" + name(a.to);
  return out.empty() ? " (none)" : out;
}

/// The default node of each type, named "x", with its smallest arity that
/// still has peers (two inputs for joins and merges, two outputs for forks).
Node node_of(NodeType type) {
  switch (type) {
    case NodeType::kSource: return Node::source("x");
    case NodeType::kSink: return Node::sink("x");
    case NodeType::kBuffer: return Node::buffer("x");
    case NodeType::kFork: return Node::fork("x", 2);
    case NodeType::kJoin: return Node::join("x", 2);
    case NodeType::kMerge: return Node::merge("x", 2);
    case NodeType::kBranch: return Node::branch("x", "even");
    case NodeType::kFunction: return Node::function("x", "inc");
    case NodeType::kVarLatency: return Node::var_latency("x", 1, 3);
    case NodeType::kCustom: break;
  }
  return Node::custom("x", "unknown", 1, 1);
}

struct Case {
  NodeType type;
  bool multithreaded;
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;
  mt::MebKind meb_kind = mt::MebKind::kFull;
  std::optional<std::size_t> shared_slots = std::nullopt;

  [[nodiscard]] std::string label() const {
    std::string s = to_string(type);
    if (!multithreaded) return s + " ST";
    s += std::string(" MT ") + mt::to_string(arbiter);
    if (type == NodeType::kBuffer) {
      s += shared_slots ? " hybrid K=" + std::to_string(*shared_slots)
                        : (meb_kind == mt::MebKind::kFull ? " full" : " reduced");
    }
    return s;
  }
};

/// The wires of one channel, per thread (one thread single-threaded).
struct Port {
  std::vector<sim::Wire<bool>*> valid;
  std::vector<sim::Wire<bool>*> ready;
  sim::Wire<Word>* data = nullptr;
};

Port port_of(Elaboration& elab, const std::string& channel) {
  if (!elab.is_multithreaded()) {
    auto& ch = elab.channel(channel);
    return Port{{&ch.valid}, {&ch.ready}, &ch.data};
  }
  auto& ch = elab.mt_channel(channel);
  Port p;
  for (std::size_t t = 0; t < ch.threads(); ++t) {
    p.valid.push_back(&ch.valid(t));
    p.ready.push_back(&ch.ready(t));
  }
  p.data = &ch.data;
  return p;
}

/// What the component drives: output valid/data and input ready.
struct Outputs {
  std::vector<std::vector<bool>> out_valid;
  std::vector<Word> out_data;
  std::vector<std::vector<bool>> in_ready;
};

std::vector<bool> values(const std::vector<sim::Wire<bool>*>& wires) {
  std::vector<bool> v;
  for (const auto* w : wires) v.push_back(w->get());
  return v;
}

class Harness {
 public:
  explicit Harness(const Case& c) : c_(c) {
    Netlist net;
    const Node x = node_of(c.type);
    const std::size_t id = net.add(x);
    for (unsigned i = 0; i < x.inputs; ++i) {
      net.connect(net.add(Node::source("s" + std::to_string(i))), 0, id, i);
    }
    for (unsigned o = 0; o < x.outputs; ++o) {
      net.connect(id, o, net.add(Node::sink("k" + std::to_string(o))), 0);
    }
    if (c.multithreaded) net = net.to_multithreaded(kThreads, c.meb_kind);
    node_ = net.node(id);
    ElaborationOptions options;
    options.arbiter = c.arbiter;
    options.meb_shared_slots = c.shared_slots;
    elab_.emplace(net, FunctionRegistry::with_defaults(), ComponentFactory::defaults(),
                  options);
    if (c.type == NodeType::kSource) {
      const auto gen = [](std::uint64_t i) { return Word{i}; };
      if (c.multithreaded) {
        for (std::size_t t = 0; t < kThreads; ++t) elab_->mt_source("x").set_generator(t, gen);
      } else {
        elab_->source("x").set_generator(gen);
      }
    }
    for (unsigned i = 0; i < x.inputs; ++i) {
      inputs_.push_back(port_of(*elab_, "s" + std::to_string(i) + ":0"));
    }
    for (unsigned o = 0; o < x.outputs; ++o) {
      outputs_.push_back(port_of(*elab_, "x:" + std::to_string(o)));
    }
    for (sim::Component* comp : elab_->simulator().components()) {
      if (comp->name() == "x") component_ = comp;
    }
  }

  [[nodiscard]] bool found() const { return component_ != nullptr; }

  [[nodiscard]] std::set<Arc> declared() const {
    std::set<Arc> arcs;
    for_each_signal_arc(node_, c_.multithreaded, mt::is_ready_aware(c_.arbiter),
                        [&arcs](const PortSignal& from, const PortSignal& to) {
                          arcs.insert({from, to});
                        });
    return arcs;
  }

  /// Walks `steps` random registered states and returns every observed
  /// input-side -> output-side dependence.
  std::set<Arc> observe(std::uint64_t seed, int steps) {
    std::mt19937_64 rng(seed);
    std::set<Arc> seen;
    for (int step = 0; step < steps; ++step) {
      drive_random(rng);
      component_->eval();
      const Outputs base = sample();
      for (unsigned i = 0; i < inputs_.size(); ++i) {
        for (auto* v : inputs_[i].valid) perturb(*v, !v->get(), PortSignal::in_valid(i), base, seen);
        auto& data = *inputs_[i].data;
        perturb(data, data.get() ^ (1 | (rng() % 16)), PortSignal::in_valid(i), base, seen);
      }
      for (unsigned o = 0; o < outputs_.size(); ++o) {
        for (auto* r : outputs_[o].ready) perturb(*r, !r->get(), PortSignal::out_ready(o), base, seen);
      }
      component_->eval();  // the baseline again: tick commits from it
      component_->tick();
    }
    return seen;
  }

 private:
  /// A legal boundary: at most one valid thread per input channel (the
  /// MT channel invariant every tick checks), any ready subset.
  void drive_random(std::mt19937_64& rng) {
    for (Port& p : inputs_) {
      for (auto* v : p.valid) v->set(false);
      if (rng() % 3 != 0) p.valid[rng() % p.valid.size()]->set(true);
      p.data->set(rng() % 16);
    }
    for (Port& p : outputs_) {
      for (auto* r : p.ready) r->set(rng() % 2 == 0);
    }
  }

  [[nodiscard]] Outputs sample() const {
    Outputs s;
    for (const Port& p : outputs_) {
      s.out_valid.push_back(values(p.valid));
      s.out_data.push_back(p.data->get());
    }
    for (const Port& p : inputs_) s.in_ready.push_back(values(p.ready));
    return s;
  }

  /// Sets `wire` to `value`, re-evaluates, records what changed, restores.
  /// Output data counts only where the output's valid is asserted: an idle
  /// MtVarLatencyUnit drives out.data = f(in.data) under out.valid = 0.
  template <typename T>
  void perturb(sim::Wire<T>& wire, T value, PortSignal from, const Outputs& base,
               std::set<Arc>& seen) {
    const T saved = wire.get();
    wire.set(value);
    component_->eval();
    const Outputs now = sample();
    for (unsigned o = 0; o < outputs_.size(); ++o) {
      const bool asserted = std::count(base.out_valid[o].begin(), base.out_valid[o].end(), true) > 0;
      if (now.out_valid[o] != base.out_valid[o] ||
          (asserted && now.out_data[o] != base.out_data[o])) {
        seen.insert({from, PortSignal::out_valid(o)});
      }
    }
    for (unsigned i = 0; i < inputs_.size(); ++i) {
      if (now.in_ready[i] != base.in_ready[i]) seen.insert({from, PortSignal::in_ready(i)});
    }
    wire.set(saved);
  }

  Case c_;
  Node node_;
  std::optional<Elaboration> elab_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  sim::Component* component_ = nullptr;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const mt::ArbiterKind arbiters[] = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious,
                                      mt::ArbiterKind::kFixedPriority, mt::ArbiterKind::kMatrix};
  for (std::size_t t = 0; t < kNodeSemantics.size(); ++t) {
    const auto type = static_cast<NodeType>(t);
    if (std::find(std::begin(kAllowListed), std::end(kAllowListed), type) !=
        std::end(kAllowListed)) {
      continue;
    }
    out.push_back({.type = type, .multithreaded = false});
    for (const auto arbiter : arbiters) {
      out.push_back({.type = type, .multithreaded = true, .arbiter = arbiter});
      if (type != NodeType::kBuffer) continue;
      out.push_back({.type = type,
                     .multithreaded = true,
                     .arbiter = arbiter,
                     .meb_kind = mt::MebKind::kReduced});
      out.push_back(
          {.type = type, .multithreaded = true, .arbiter = arbiter, .shared_slots = 1});
    }
  }
  return out;
}

TEST(NodeSemantics, DeclaredSignalArcsAreExactlyTheObservedOnes) {
  const auto all = cases();
  ASSERT_EQ(all.size(), 9 * 5 + 8U);  // every built-in type but kCustom
  std::uint64_t seed = 20260730;
  for (const Case& c : all) {
    Harness h(c);
    ASSERT_TRUE(h.found()) << c.label();
    const std::set<Arc> declared = h.declared();
    const std::set<Arc> observed = h.observe(seed++, 400);
    std::set<Arc> undeclared;
    std::set<Arc> unobserved;
    std::set_difference(observed.begin(), observed.end(), declared.begin(), declared.end(),
                        std::inserter(undeclared, undeclared.end()));
    std::set_difference(declared.begin(), declared.end(), observed.begin(), observed.end(),
                        std::inserter(unobserved, unobserved.end()));
    EXPECT_TRUE(undeclared.empty())
        << c.label() << ": the component has arcs its row does not declare:"
        << render(undeclared);
    EXPECT_TRUE(unobserved.empty())
        << c.label() << ": the row declares arcs the component never shows:"
        << render(unobserved);
  }
}

TEST(NodeSemantics, StorageRowsCutEveryCombinationalPath) {
  for (const NodeSemantics& row : kNodeSemantics) {
    if (!row.storage()) continue;
    EXPECT_FALSE(row.crossbar) << to_string(row.type);
    EXPECT_EQ(row.ready_reads, ReadyReads::kNone) << to_string(row.type);
    EXPECT_GE(row.fill_latency(node_of(row.type)), 1U) << to_string(row.type);
  }
}

}  // namespace
}  // namespace mte::netlist
