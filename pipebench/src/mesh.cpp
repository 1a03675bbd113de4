#include "mesh.hpp"

#include <array>

#include "netlist/text_format.hpp"
#include "stats.hpp"

namespace pipebench {

namespace {

using mte::netlist::CircuitBuilder;
using mte::netlist::NodeRef;

// Stages of the joined stream between the join and the fork.
constexpr std::size_t kBodyStages = 6;

class LaneRng {
 public:
  explicit LaneRng(std::uint64_t seed) : state_(seed) {}
  std::size_t pick(std::size_t n) { return splitmix64(state_) % n; }
  /// A rate on a 0.05 grid in [lo_percent/100, 1.0]. Each value is the
  /// double nearest its two-digit decimal, so it round-trips through the
  /// .enl text exactly.
  double rate(unsigned lo_percent) {
    const std::size_t steps = (100 - lo_percent) / 5;
    return static_cast<double>(lo_percent + 5 * pick(steps + 1)) / 100.0;
  }

 private:
  std::uint64_t state_;
};

std::string named(const std::string& prefix, const char* suffix) {
  std::string name = prefix;
  name.append(suffix);
  return name;
}

const char* function_name(LaneRng& rng) {
  static constexpr std::array<const char*, 5> kFns{"id", "inc", "dec", "square",
                                                  "double"};
  return kFns[rng.pick(kFns.size())];
}

NodeRef var_latency(CircuitBuilder& b, const std::string& name, LaneRng& rng) {
  const auto lo = static_cast<unsigned>(1 + rng.pick(2));
  return b.var_latency(name, lo, lo + static_cast<unsigned>(rng.pick(3)));
}

}  // namespace

CircuitBuilder mesh_builder(std::size_t lanes, std::uint64_t seed) {
  CircuitBuilder b;
  LaneRng rng(seed);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::string p = named(named("l", std::to_string(l).c_str()), "_");
    NodeRef a = b.source(named(p, "sa")).rate(rng.rate(70)) >> b.buffer(named(p, "a0")) >>
                b.function(named(p, "af"), function_name(rng)) >> b.buffer(named(p, "a1"));
    NodeRef c = b.source(named(p, "sb")).rate(rng.rate(70)) >> b.buffer(named(p, "b0")) >>
                var_latency(b, named(p, "bv"), rng) >> b.buffer(named(p, "b1"));
    NodeRef head = b.join(named(p, "j"), 2);
    a >> head;
    c >> head;
    for (std::size_t s = 0; s < kBodyStages; ++s) {
      const std::string n = named(p, "s") + std::to_string(s);
      head = head >> b.buffer(named(n, "b"));
      head = s % 2 == 0 ? head >> b.function(named(n, "f"), function_name(rng))
                        : head >> var_latency(b, named(n, "v"), rng);
    }
    NodeRef fork = head >> b.buffer(named(p, "ob")) >> b.fork(named(p, "fk"), 2);
    fork >> b.buffer(named(p, "o0")) >> b.sink(named(p, "k0")).rate(rng.rate(80));
    fork >> b.buffer(named(p, "o1")) >> b.sink(named(p, "k1")).rate(rng.rate(80));
  }
  b.then_multithreaded(kMeshThreads, mte::mt::MebKind::kFull);
  return b;
}

std::string mesh_enl(std::size_t lanes, std::uint64_t seed) {
  return mte::netlist::serialize_netlist(mesh_builder(lanes, seed).build());
}

}  // namespace pipebench
