// Histogram: integer-valued sample accumulator with summary statistics.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/snapshot.hpp"

namespace mte::stats {

class Histogram {
 public:
  void add(std::uint64_t value, std::uint64_t count = 1) {
    buckets_[value] += count;
    total_ += count;
    sum_ += value * count;
    if (count > 0) {
      if (total_ == count || value < min_) min_ = value;
      if (total_ == count || value > max_) max_ = value;
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return total_ ? max_ : 0; }

  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(total_);
  }

  /// Smallest value v such that at least q (0..1] of the samples are <= v.
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (total_ == 0) return 0;
    const auto threshold =
        static_cast<std::uint64_t>(q * static_cast<double>(total_) + 0.5);
    std::uint64_t running = 0;
    for (const auto& [value, count] : buckets_) {
      running += count;
      if (running >= threshold) return value;
    }
    return max_;
  }

  void clear() {
    buckets_.clear();
    total_ = sum_ = 0;
    min_ = max_ = 0;
  }

  void save(sim::SnapshotWriter& w) const {
    sim::snapshot_write_map(w, buckets_);
    w.write_u64(total_);
    w.write_u64(sum_);
    w.write_u64(min_);
    w.write_u64(max_);
  }

  void load(sim::SnapshotReader& r) {
    sim::snapshot_read_map(r, buckets_);
    total_ = r.read_u64();
    sum_ = r.read_u64();
    min_ = r.read_u64();
    max_ = r.read_u64();
  }

 private:
  std::map<std::uint64_t, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace mte::stats
