// Elastic netlist: the abstract graph on which multithreaded elastic
// synthesis operates (paper Secs. II & IV).
//
// Nodes are elastic primitives (sources, sinks, buffers, forks, joins,
// merges, branches, function units, variable-latency units); edges are
// elastic channels. A single-thread netlist can be *transformed* into a
// multithreaded one (to_multithreaded): buffers become MEBs (full or
// reduced) and the operators become their M- variants — this is the
// synthesis step the paper's primitives enable.
//
// This is the data model only. add(Node) and connect() are the one
// construction primitive; CircuitBuilder (builder.hpp) layers named,
// checked construction on top. Whether a netlist is legal is decided by
// the static analyzer (analysis/analyze.hpp): CircuitBuilder::build()
// refuses its errors, and Elaboration (elaborate.hpp) refuses the
// subset that makes a netlist impossible to simulate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mt/meb_variant.hpp"

namespace mte::netlist {

enum class NodeType {
  kSource,
  kSink,
  kBuffer,      ///< 2-slot EB (MEB after the MT transform)
  kFork,
  kJoin,
  kMerge,
  kBranch,      ///< routes by a predicate on the token (true/false outputs)
  kFunction,    ///< combinational map, by registry name
  kVarLatency,  ///< variable-latency unit (shared MtVarLatencyUnit after the MT transform)
  kCustom,      ///< user primitive, resolved by kind through the ComponentFactory
};

/// The type's name: its .enl keyword (text_format.hpp) and its label in
/// diagnostics.
[[nodiscard]] const char* to_string(NodeType type);

/// Sanity bound on node arities, shared by every construction path
/// (CircuitBuilder, the .enl parser): keeps a malformed count from
/// exploding analysis or elaboration.
inline constexpr unsigned kMaxPorts = 1024;

struct Node {
  std::size_t id = 0;
  NodeType type = NodeType::kBuffer;
  std::string name;
  unsigned inputs = 1;
  unsigned outputs = 1;
  std::string fn;              ///< registry key (kFunction: map; kBranch: predicate;
                               ///< kCustom: component kind)
  unsigned latency_lo = 1;     ///< kVarLatency latency range
  unsigned latency_hi = 1;
  double rate = 1.0;           ///< kSource injection / kSink readiness rate

  // Canonical per-type specs — the one place each node type's arity and
  // attribute layout is defined. Netlist::add(Node::fork("f", 2)) builds
  // raw netlists; CircuitBuilder and the .enl parser use them too.
  [[nodiscard]] static Node source(const std::string& name, double rate = 1.0);
  [[nodiscard]] static Node sink(const std::string& name, double rate = 1.0);
  [[nodiscard]] static Node buffer(const std::string& name);
  [[nodiscard]] static Node fork(const std::string& name, unsigned outputs);
  [[nodiscard]] static Node join(const std::string& name, unsigned inputs);
  [[nodiscard]] static Node merge(const std::string& name, unsigned inputs);
  [[nodiscard]] static Node branch(const std::string& name, const std::string& predicate);
  [[nodiscard]] static Node function(const std::string& name, const std::string& fn);
  [[nodiscard]] static Node var_latency(const std::string& name, unsigned lo,
                                        unsigned hi);
  [[nodiscard]] static Node custom(const std::string& name, const std::string& kind,
                                   unsigned inputs, unsigned outputs);
};

struct Edge {
  std::size_t id = 0;
  std::size_t from = 0;
  unsigned from_port = 0;
  std::size_t to = 0;
  unsigned to_port = 0;
};

class Netlist {
 public:
  /// The single construction entry point: appends a fully described node
  /// (usually a Node factory result) and returns its id (the spec's id
  /// field is overwritten). CircuitBuilder funnels through here. Nothing
  /// is checked: raw netlists may be deliberately broken.
  std::size_t add(Node spec);

  /// Connects from:from_port -> to:to_port. Ports are 0-based; unchecked,
  /// like add().
  void connect(std::size_t from, unsigned from_port, std::size_t to, unsigned to_port);

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
  [[nodiscard]] const Node& node(std::size_t id) const { return nodes_.at(id); }

  /// 1 for a single-thread netlist; the S of to_multithreaded(S, kind).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] mt::MebKind meb_kind() const noexcept { return meb_kind_; }

  /// True after to_multithreaded(): elaborates to MEBs and M- operators
  /// even for the degenerate S == 1 design point.
  [[nodiscard]] bool is_multithreaded() const noexcept { return multithreaded_; }

  /// Number of nodes of a given type.
  [[nodiscard]] std::size_t count(NodeType type) const;

  /// Graphviz rendering (M- prefixes and MEB labels after the transform).
  [[nodiscard]] std::string to_dot() const;

  /// The synthesis pass: returns the S-thread version of this netlist
  /// with the chosen MEB flavour (S >= 1). Requires a netlist that is not
  /// already multithreaded.
  [[nodiscard]] Netlist to_multithreaded(std::size_t threads, mt::MebKind kind) const;

 private:
  friend class CircuitBuilder;  // fluent construction layer (builder.hpp)

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::size_t threads_ = 1;
  bool multithreaded_ = false;
  mt::MebKind meb_kind_ = mt::MebKind::kFull;
};

}  // namespace mte::netlist
