// Node semantics: each built-in primitive's handshake behaviour, written
// down once as one constexpr row per NodeType. The static analyzer and
// the performance pass's marked-graph lowering read these rows instead of
// switching on the type; tests/netlist/test_node_semantics.cpp checks
// each row's valid/ready arcs against its ComponentFactory::defaults()
// component.
//
// A row describes the default registration of its type: overriding
// register_st/register_mt for a built-in type leaves the row as it is.
// kCustom has no default component; its row is conservative.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "netlist/netlist.hpp"

namespace mte::netlist {

/// Which input valids each input's ready reads.
enum class ReadyReads : std::uint8_t {
  kNone,
  kOwnValid,    ///< its own input's token (a predicate on the incoming data)
  kPeerValids,  ///< every other input's valid (lazy join)
  kAllValids,   ///< every input's valid (the grant scan of a merge)
};

/// When an output's valid reads that output's downstream ready.
enum class ValidReadsReady : std::uint8_t {
  kNever,
  kMultithreaded,  ///< the M- form selects among threads by their ready
  kReadyAware,     ///< the M- form under a ready-aware arbiter (mt::is_ready_aware)
};

struct NodeSemantics {
  NodeType type = NodeType::kCustom;
  /// Token events of the marked graph: the node accepts tokens into
  /// registered state (a sink consumption, a storage slot write) and/or
  /// offers them from it (a source grant, a storage output).
  bool accepts = false;
  bool offers = false;
  /// Token-index alignment across the node is data-dependent, so no
  /// marked-graph constraint may cross it.
  bool breaks_alignment = false;
  /// Pass-through crossbar: every input's valid/data drives every output's
  /// valid/data, and every output's ready drives every input's ready.
  bool crossbar = false;
  ReadyReads ready_reads = ReadyReads::kNone;
  ValidReadsReady valid_reads_ready = ValidReadsReady::kNever;
  /// Cycles from accepting a token to offering it downstream.
  std::size_t (*fill_latency)(const Node&) = [](const Node&) -> std::size_t { return 0; };
  /// Tokens the node holds: how many acceptances may outrun the
  /// downstream consumption of the oldest one.
  std::size_t (*capacity)(const Netlist&, std::optional<std::size_t> meb_shared_slots) =
      [](const Netlist&, std::optional<std::size_t>) -> std::size_t { return 0; };

  /// Storage registers the token on both handshake sides, which cuts every
  /// combinational path through the node.
  [[nodiscard]] constexpr bool storage() const noexcept { return accepts && offers; }
};

inline constexpr std::array<NodeSemantics, 10> kNodeSemantics = {{
    // The MtSource grant reads downstream ready under a ready-aware arbiter.
    {.type = NodeType::kSource,
     .offers = true,
     .valid_reads_ready = ValidReadsReady::kReadyAware},
    // Readiness is state and rate driven.
    {.type = NodeType::kSink, .accepts = true},
    // The 2-slot EB, or an MEB: every flavour drives in.ready from
    // registered state, and MEB arbitration may read downstream ready.
    // Holds 2 tokens (EB), 2S (full MEB), S+1 (reduced) or S+K (hybrid).
    {.type = NodeType::kBuffer,
     .accepts = true,
     .offers = true,
     .valid_reads_ready = ValidReadsReady::kReadyAware,
     .fill_latency = [](const Node&) -> std::size_t { return 1; },
     .capacity = [](const Netlist& net, std::optional<std::size_t> k) -> std::size_t {
       if (!net.is_multithreaded()) return 2;
       const std::size_t s = net.threads();
       if (k) return s + *k;
       return net.meb_kind() == mt::MebKind::kReduced ? s + 1 : 2 * s;
     }},
    // Eager: in.ready reads every pending output's ready.
    {.type = NodeType::kFork, .crossbar = true},
    // Lazy: each input's ready reads the peer inputs' valids.
    {.type = NodeType::kJoin, .crossbar = true, .ready_reads = ReadyReads::kPeerValids},
    // The grant scan reads every input valid; M-Merge selection also reads
    // downstream ready, whatever the MEB arbiter.
    {.type = NodeType::kMerge,
     .breaks_alignment = true,
     .crossbar = true,
     .ready_reads = ReadyReads::kAllValids,
     .valid_reads_ready = ValidReadsReady::kMultithreaded},
    // The predicate reads the incoming token, so in.ready depends on it as
    // well as on the selected output's ready.
    {.type = NodeType::kBranch,
     .breaks_alignment = true,
     .crossbar = true,
     .ready_reads = ReadyReads::kOwnValid},
    // Valid and ready are wire forwards, data a combinational map.
    {.type = NodeType::kFunction, .crossbar = true},
    // Registered issue and result (the MT unit's combinational fast path
    // is opt-in at configuration time and invisible here). Latency is
    // latency_lo, at least 1; capacity 1, or S for the unit S threads share.
    {.type = NodeType::kVarLatency,
     .accepts = true,
     .offers = true,
     .fill_latency = [](const Node& n) -> std::size_t {
       return n.latency_lo == 0 ? 1 : n.latency_lo;
     },
     .capacity = [](const Netlist& net, std::optional<std::size_t>) -> std::size_t {
       return net.is_multithreaded() ? net.threads() : 1;
     }},
    // Conservatively a combinational crossbar: a factory may register a
    // pass-through unit, and a falsely accepted bufferless loop livelocks
    // the simulator.
    {.type = NodeType::kCustom, .breaks_alignment = true, .crossbar = true},
}};

[[nodiscard]] constexpr const NodeSemantics& semantics(NodeType type) {
  return kNodeSemantics[static_cast<std::size_t>(type)];
}

static_assert(std::ranges::all_of(kNodeSemantics, [](const NodeSemantics& row) {
  return &semantics(row.type) == &row;
}), "kNodeSemantics rows must follow NodeType order");

/// One end of a combinational arc inside a node: the valid/data bundle or
/// the ready of one of its ports.
struct PortSignal {
  bool output = false;  ///< an output port (else an input port)
  unsigned port = 0;
  bool ready = false;   ///< the ready wire(s) (else valid and data)

  [[nodiscard]] static constexpr PortSignal in_valid(unsigned p) { return {false, p, false}; }
  [[nodiscard]] static constexpr PortSignal in_ready(unsigned p) { return {false, p, true}; }
  [[nodiscard]] static constexpr PortSignal out_valid(unsigned p) { return {true, p, false}; }
  [[nodiscard]] static constexpr PortSignal out_ready(unsigned p) { return {true, p, true}; }
  auto operator<=>(const PortSignal&) const = default;
};

/// Calls arc(from, to) for every combinational dependency that `node`'s
/// row declares — `to` is computed from `from` during eval — when the node
/// elaborates single-threaded or multithreaded, under a ready-aware
/// arbiter or not. Arcs come per input (its crossbar arcs, then what its
/// ready reads), then per output.
template <typename F>
void for_each_signal_arc(const Node& node, bool multithreaded, bool ready_aware, F&& arc) {
  const NodeSemantics& row = semantics(node.type);
  for (unsigned i = 0; i < node.inputs; ++i) {
    if (row.crossbar) {
      for (unsigned o = 0; o < node.outputs; ++o) {
        arc(PortSignal::in_valid(i), PortSignal::out_valid(o));
        arc(PortSignal::out_ready(o), PortSignal::in_ready(i));
      }
    }
    for (unsigned j = 0; j < node.inputs; ++j) {
      const bool reads = row.ready_reads == ReadyReads::kAllValids ||
                         (row.ready_reads == ReadyReads::kOwnValid && j == i) ||
                         (row.ready_reads == ReadyReads::kPeerValids && j != i);
      if (reads) arc(PortSignal::in_valid(j), PortSignal::in_ready(i));
    }
  }
  const bool valid_reads_ready =
      multithreaded && (row.valid_reads_ready == ValidReadsReady::kMultithreaded ||
                        (row.valid_reads_ready == ValidReadsReady::kReadyAware && ready_aware));
  for (unsigned o = 0; valid_reads_ready && o < node.outputs; ++o) {
    arc(PortSignal::out_ready(o), PortSignal::out_valid(o));
  }
}

}  // namespace mte::netlist
