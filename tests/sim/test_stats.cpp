#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "stats/histogram.hpp"
#include "stats/latency.hpp"

namespace mte::stats {
namespace {

TEST(Histogram, BasicMoments) {
  Histogram h;
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h;
  h.add(10, 5);
  h.add(20, 5);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(7);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.add(3);
  EXPECT_EQ(h.min(), 3u);
}

TEST(Histogram, SnapshotRoundTripIsByteIdentical) {
  // The snapshot is one ordered value -> count map (a zero-count add
  // included) followed by the moments, and loads back to the same bytes
  // and statistics.
  Histogram h;
  std::map<std::uint64_t, std::uint64_t> expected;
  std::uint64_t sum = 0;
  const std::pair<std::uint64_t, std::uint64_t> adds[] = {
      {17, 3}, {0, 2}, {15, 4}, {16, 1}, {3, 1}, {1000, 1}, {9, 0}, {3, 2}, {40, 0}};
  for (const auto& [value, count] : adds) {
    h.add(value, count);
    expected[value] += count;
    sum += value * count;
  }
  sim::SnapshotWriter reference;
  sim::snapshot_write_map(reference, expected);
  reference.write_u64(h.count());
  reference.write_u64(sum);
  reference.write_u64(0);
  reference.write_u64(1000);

  sim::SnapshotWriter saved;
  h.save(saved);
  EXPECT_EQ(saved.bytes(), reference.bytes());

  sim::SnapshotReader reader(saved.bytes());
  Histogram back;
  back.add(5);  // load replaces what was there
  back.load(reader);
  sim::SnapshotWriter again;
  back.save(again);
  EXPECT_EQ(again.bytes(), saved.bytes());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min(), 0u);
  EXPECT_EQ(back.max(), 1000u);
  EXPECT_DOUBLE_EQ(back.mean(), h.mean());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_EQ(back.percentile(q), h.percentile(q)) << q;
  }
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 15u);
  EXPECT_EQ(h.percentile(0.75), 17u);
  EXPECT_EQ(h.percentile(1.0), 1000u);
}

TEST(LatencyTracker, TracksInjectToRetire) {
  LatencyTracker lt;
  lt.on_inject(1, 10);
  lt.on_inject(2, 12);
  EXPECT_EQ(lt.in_flight(), 2u);
  EXPECT_EQ(lt.on_retire(1, 15), 5u);
  EXPECT_EQ(lt.on_retire(2, 20), 8u);
  EXPECT_EQ(lt.in_flight(), 0u);
  EXPECT_DOUBLE_EQ(lt.histogram().mean(), 6.5);
}

TEST(LatencyTracker, UnknownTagIgnored) {
  LatencyTracker lt;
  EXPECT_EQ(lt.on_retire(99, 5), 0u);
  EXPECT_EQ(lt.histogram().count(), 0u);
}

TEST(LatencyTracker, ClearEmpties) {
  LatencyTracker lt;
  lt.on_inject(1, 0);
  lt.clear();
  EXPECT_EQ(lt.in_flight(), 0u);
  EXPECT_EQ(lt.on_retire(1, 10), 0u);
}

}  // namespace
}  // namespace mte::stats
