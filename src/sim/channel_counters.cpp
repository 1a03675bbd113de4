#include "sim/channel_counters.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/trace_session.hpp"

namespace mte::sim {

ChannelCounters::ChannelCounters(std::string name, std::size_t threads,
                                 const Wire<bool>* valid,
                                 std::span<const std::uint64_t> valid_words,
                                 std::vector<const Wire<bool>*> ready,
                                 const Wire<Word>& data)
    : name_(std::move(name)),
      valid_(valid),
      valid_words_(valid_words),
      ready_(std::move(ready)),
      data_(&data),
      counts_(threads, 0),
      waits_(threads, 0) {}

void ChannelCounters::observe(Cycle cycle, obs::TraceSession* trace) {
  ++cycles_;
  if (valid_ != nullptr) {
    if (valid_->get()) on_valid(0, cycle, trace);
    return;
  }
  // Only threads with valid asserted can transfer or stall, so walk the
  // set bits of the channel's maintained valid mask (at most one under
  // the protocol) instead of reading S wires per cycle.
  for (std::size_t w = 0; w < valid_words_.size(); ++w) {
    for (std::uint64_t bits = valid_words_[w]; bits != 0; bits &= bits - 1) {
      on_valid(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)), cycle, trace);
    }
  }
}

void ChannelCounters::on_valid(std::size_t t, Cycle cycle, obs::TraceSession* trace) {
  if (!ready_[t]->get()) {
    ++waits_[t];
    return;
  }
  ++counts_[t];
  wait_hist_.add(waits_[t]);
  waits_[t] = 0;
  last_value_ = data_->get();
  if (trace != nullptr) {
    trace->add_transfer(cycle, name_, static_cast<int>(t), last_value_);
  }
}

void ChannelCounters::clear() {
  cycles_ = 0;
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(waits_.begin(), waits_.end(), 0);
  wait_hist_.clear();
  last_value_ = 0;
}

void ChannelCounters::save(SnapshotWriter& w) const {
  w.write_u64(cycles_);
  snapshot_write_span(w, counts_);
  snapshot_write_span(w, waits_);
  wait_hist_.save(w);
  w.write_u64(last_value_);
}

void ChannelCounters::load(SnapshotReader& r) {
  cycles_ = r.read_u64();
  snapshot_read_span(r, counts_);
  snapshot_read_span(r, waits_);
  wait_hist_.load(r);
  last_value_ = r.read_u64();
}

}  // namespace mte::sim
