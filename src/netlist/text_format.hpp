// Textual elastic-netlist format (.enl): a small human-writable exchange
// format for elastic dataflow graphs, so designs can be versioned and
// loaded without recompiling.
//
//   # comment
//   threads 4 reduced          # optional; default: single-thread
//   source  in   rate=0.9
//   sink    out  rate=1.0
//   buffer  b0
//   fork    f    2             # 2 outputs
//   join    j    2             # 2 inputs
//   merge   m    2             # 2 inputs
//   branch  br   even          # predicate name
//   function fu  square        # function name
//   var_latency v 1 4          # latency range [1, 4]
//   custom  c    kind 1 1      # factory kind, inputs, outputs
//   connect in:0 -> b0:0
//
// Node keywords are the NodeType names (to_string). Node statements must
// precede the connect statements that use them.
#pragma once

#include <stdexcept>
#include <string>

#include "netlist/netlist.hpp"

namespace mte::netlist {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses .enl text; throws ParseError with a line number on problems.
[[nodiscard]] Netlist parse_netlist(const std::string& text);

/// Serializes a netlist to .enl text (parse_netlist round-trips it).
[[nodiscard]] std::string serialize_netlist(const Netlist& netlist);

}  // namespace mte::netlist
