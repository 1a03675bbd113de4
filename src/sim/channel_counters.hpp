// ChannelCounters: the kernel-owned transfer statistics of one channel.
//
// A transfer on an elastic channel is valid(i) && ready(i) at the clock
// edge (paper Sec. III), so channel statistics are a fact the kernel reads
// straight off the settled wires. A channel registered with
// Simulator::count_transfers gets one counter block; every step() updates
// all blocks in one plain loop on the settled (and fault-injected) state,
// after the read-only protocol checks and before the commit phase. Per
// thread a block accumulates:
//   - transfer counts (-> throughput in tokens/cycle since reset), and
//   - the backpressure wait of each token: the number of cycles its valid
//     was asserted before the consumer's ready completed the transfer
//     (-> a wait histogram of the stalls the channel injects).
// Observation costs no eval and no tick. The counters clear on reset(),
// save and restore with the simulator's snapshot, publish the
// channel.<name>.* metric rows, and feed an attached TraceSession's
// transfer track.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "sim/wire.hpp"
#include "stats/histogram.hpp"

namespace mte::obs {
class TraceSession;
}

namespace mte::sim {

class ChannelCounters {
 public:
  using Word = std::uint64_t;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t threads() const noexcept { return counts_.size(); }

  /// Transfers completed by one thread / by all threads since reset.
  [[nodiscard]] std::uint64_t count(std::size_t thread) const {
    return counts_.at(thread);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (auto c : counts_) total += c;
    return total;
  }

  /// Tokens per cycle since reset, per thread / aggregate.
  [[nodiscard]] double rate(std::size_t thread) const {
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(count(thread)) /
                              static_cast<double>(cycles_);
  }
  [[nodiscard]] double throughput() const noexcept {
    return cycles_ == 0
               ? 0.0
               : static_cast<double>(count()) / static_cast<double>(cycles_);
  }

  /// Backpressure wait per delivered token (cycles valid was stalled by a
  /// deasserted ready before the transfer fired).
  [[nodiscard]] const stats::Histogram& wait_histogram() const noexcept {
    return wait_hist_;
  }
  [[nodiscard]] double mean_wait() const noexcept { return wait_hist_.mean(); }

  /// Cycles observed since reset.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// Payload of the most recent completed transfer.
  [[nodiscard]] Word last_value() const noexcept { return last_value_; }

 private:
  friend class Simulator;

  ChannelCounters(std::string name, std::size_t threads, const Wire<bool>* valid,
                  std::span<const std::uint64_t> valid_words,
                  std::vector<const Wire<bool>*> ready, const Wire<Word>& data);

  /// One clock edge on settled wires: counts transfers and stalls, and
  /// records each transfer on `trace` when one is attached.
  void observe(Cycle cycle, obs::TraceSession* trace);
  void on_valid(std::size_t thread, Cycle cycle, obs::TraceSession* trace);
  void clear();
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

  std::string name_;
  // The watched wires: a single-thread channel's valid wire, or a
  // multithreaded channel's packed valid mask (one bit per thread).
  const Wire<bool>* valid_ = nullptr;
  std::span<const std::uint64_t> valid_words_;
  std::vector<const Wire<bool>*> ready_;
  const Wire<Word>* data_;

  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> waits_;  // pending stall of each thread's token
  stats::Histogram wait_hist_;
  std::uint64_t cycles_ = 0;
  Word last_value_ = 0;
};

}  // namespace mte::sim
