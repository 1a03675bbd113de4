// Elastic channel: data + valid/ready handshake (paper Fig. 2a).
//
// A transfer occurs on a channel in every cycle where both valid and ready
// are asserted at the clock edge. The producer drives valid and data; the
// consumer drives ready.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/wire.hpp"

namespace mte::elastic {

template <typename T>
class Channel {
 public:
  Channel(sim::Simulator& s, std::string name)
      : valid(s.tracker(), false),
        ready(s.tracker(), false),
        data(s.tracker(), T{}),
        name_(std::move(name)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// True when a transfer completes in the current (settled) cycle.
  /// (Not noexcept: a first-time read from inside eval() records the
  /// reader in the wire's fanout, which may allocate.)
  [[nodiscard]] bool fired() const { return valid.get() && ready.get(); }

  sim::Wire<bool> valid;
  sim::Wire<bool> ready;
  sim::Wire<T> data;

 private:
  std::string name_;
};

/// Registers `ch` with `s` for per-channel transfer counting
/// (Simulator::count_transfers) under the channel's name.
inline sim::ChannelCounters& count_transfers(sim::Simulator& s,
                                             const Channel<std::uint64_t>& ch) {
  return s.count_transfers(ch.name(), ch.valid, ch.ready, ch.data);
}

}  // namespace mte::elastic
