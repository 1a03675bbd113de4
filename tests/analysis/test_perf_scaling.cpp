// Scaling and compositionality of the static performance pass
// (`ctest -L perf-scaling`):
//   * the token-slack searches do work linear in netlist size:
//     PerfReport::slack_visits at 500 lanes or stages is at most 10.5x
//     its value at 50, both for independent two-sink lanes and for one
//     long pipeline with a sink tapped off every stage (a search over
//     the sink's whole weak component per sink would grow as sinks x V,
//     i.e. 100x, and the tapped pipeline is a single component);
//   * analyzing a disjoint union of fuzz-corpus netlists gives the union
//     of their per-netlist sink bounds, field for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/perf.hpp"
#include "netlist/builder.hpp"
#include "netlist/fuzz.hpp"
#include "netlist/netlist.hpp"

namespace {

using namespace mte;
using analysis::PerfOptions;
using analysis::PerfReport;
using analysis::PerfSinkBound;
using netlist::CircuitBuilder;
using netlist::Netlist;

/// `lanes` independent lanes, alternating two two-sink shapes: a plain
/// buffered fork, and a var-latency unit whose issue slot comes back only
/// after three delay stages and the next buffer took the token (one token
/// over four cycles: structural ratio 1/4, so every sink of that lane
/// walks its component's critical cycle). S = 1 multithreaded, so a
/// hybrid K = 0 analysis also prices each sink against the MEB service
/// cap.
Netlist lanes_netlist(std::size_t lanes) {
  CircuitBuilder b;
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::string p = "l" + std::to_string(l) + "_";
    auto head = b.source(p + "src") >> b.buffer(p + "in");
    if (l % 2 == 1) head = head >> b.var_latency(p + "vl", 3, 3) >> b.buffer(p + "out");
    auto fork = head >> b.fork(p + "fk", 2);
    fork >> b.buffer(p + "o0") >> b.sink(p + "k0");
    fork >> b.buffer(p + "o1") >> b.sink(p + "k1");
  }
  b.then_multithreaded(1, mt::MebKind::kFull);
  return b.build();
}

TEST(PerfScaling, SlackSearchWorkIsLinearInNetlistSize) {
  PerfOptions hybrid;
  hybrid.meb_shared_slots = 0;
  for (const PerfOptions& options : {PerfOptions{}, hybrid}) {
    SCOPED_TRACE(options.meb_shared_slots ? "hybrid K=0" : "full MEB");
    const PerfReport small = analysis::analyze_perf(lanes_netlist(50), options);
    const PerfReport large = analysis::analyze_perf(lanes_netlist(500), options);
    ASSERT_EQ(small.sinks.size(), 100u);
    ASSERT_EQ(large.sinks.size(), 1000u);

    // The shapes take the paths the gate is meant to cover.
    const auto slow = std::count_if(
        large.sinks.begin(), large.sinks.end(),
        [](const PerfSinkBound& s) { return s.structural_ratio < 0.5; });
    EXPECT_EQ(slow, 500);
    ASSERT_TRUE(large.bottleneck.has_value());
    if (options.meb_shared_slots) {
      EXPECT_TRUE(std::all_of(large.sinks.begin(), large.sinks.end(),
                              [](const PerfSinkBound& s) { return s.theta <= 0.5; }));
    }

    ASSERT_GT(small.slack_visits, 0u);
    EXPECT_LE(static_cast<double>(large.slack_visits),
              10.5 * static_cast<double>(small.slack_visits))
        << "slack searches: " << small.slack_visits << " entries at 50 lanes, "
        << large.slack_visits << " at 500";
  }
}

/// One weak component with a sink per stage: a var-latency unit of
/// structural ratio 1/4 (as in lanes_netlist) feeds a buffer chain whose
/// every stage forks a tap to its own sink. The slot-release and fork
/// coupling arcs give every vertex a path to every sink.
Netlist tapped_pipeline(std::size_t stages) {
  CircuitBuilder b;
  auto cur = b.source("src") >> b.buffer("in") >> b.var_latency("vl", 3, 3) >>
             b.buffer("s0");
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string n = std::to_string(i);
    auto fork = cur >> b.fork("fk" + n, 2);
    fork >> b.buffer("t" + n) >> b.sink("k" + n);
    cur = fork >> b.buffer("s" + std::to_string(i + 1));
  }
  cur >> b.sink("end");
  b.then_multithreaded(1, mt::MebKind::kFull);
  return b.build();
}

TEST(PerfScaling, SlackSearchWorkIsLinearInTheSinksOfOneComponent) {
  PerfOptions hybrid;
  hybrid.meb_shared_slots = 0;
  for (const PerfOptions& options : {PerfOptions{}, hybrid}) {
    SCOPED_TRACE(options.meb_shared_slots ? "hybrid K=0" : "full MEB");
    const PerfReport small = analysis::analyze_perf(tapped_pipeline(50), options);
    const PerfReport large = analysis::analyze_perf(tapped_pipeline(500), options);
    ASSERT_EQ(small.sinks.size(), 51u);
    ASSERT_EQ(large.sinks.size(), 501u);

    // Every sink prices the one critical cycle, at the slack of its tap.
    ASSERT_TRUE(large.bottleneck.has_value());
    for (const PerfSinkBound& s : large.sinks) {
      SCOPED_TRACE(s.sink);
      EXPECT_LT(s.structural_ratio, 0.5);
      ASSERT_GE(s.candidates.size(), 2u);
      EXPECT_EQ(s.candidates[1].tokens, large.bottleneck->tokens);
      EXPECT_EQ(s.candidates[1].hops, large.bottleneck->hops);
    }

    ASSERT_GT(small.slack_visits, 0u);
    EXPECT_LE(static_cast<double>(large.slack_visits),
              10.5 * static_cast<double>(small.slack_visits))
        << "slack searches: " << small.slack_visits << " entries at 50 stages, "
        << large.slack_visits << " at 500";
  }
}

std::uint64_t base_seed() {
  if (const char* env = std::getenv("MTE_FUZZ_SEED"); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEEu;
}

/// The members side by side in one netlist, member i's names prefixed
/// "u<i>_". All members share one thread count and MEB kind.
Netlist disjoint_union(const std::vector<Netlist>& members) {
  Netlist all;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string prefix = "u" + std::to_string(i) + "_";
    const std::size_t offset = all.nodes().size();
    for (netlist::Node node : members[i].nodes()) {
      node.name = prefix + node.name;
      all.add(node);
    }
    for (const auto& e : members[i].edges()) {
      all.connect(offset + e.from, e.from_port, offset + e.to, e.to_port);
    }
  }
  const Netlist& first = members.front();
  return first.is_multithreaded() ? all.to_multithreaded(first.threads(), first.meb_kind())
                                  : all;
}

void expect_same_bound(const PerfSinkBound& got, const PerfSinkBound& want) {
  SCOPED_TRACE(want.sink);
  EXPECT_EQ(got.sink, want.sink);
  EXPECT_EQ(got.channel, want.channel);
  EXPECT_EQ(got.theta, want.theta);
  EXPECT_EQ(got.structural_ratio, want.structural_ratio);
  EXPECT_EQ(got.fill_latency, want.fill_latency);
  EXPECT_EQ(got.reachable, want.reachable);
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (std::size_t c = 0; c < want.candidates.size(); ++c) {
    EXPECT_EQ(got.candidates[c].tokens, want.candidates[c].tokens);
    EXPECT_EQ(got.candidates[c].hops, want.candidates[c].hops);
    EXPECT_EQ(got.candidates[c].slack, want.candidates[c].slack);
  }
}

TEST(PerfScaling, DisjointUnionIsTheUnionOfSinkBounds) {
  // Group a fuzz corpus by (multithreaded, S, MEB kind): only netlists
  // that elaborate the same way can share one netlist.
  using Key = std::tuple<bool, std::size_t, mt::MebKind>;
  std::map<Key, std::vector<Netlist>> groups;
  const std::uint64_t base = base_seed();
  for (std::uint64_t k = 0; k < 48; ++k) {
    std::mt19937_64 rng(base + k);
    bool has_mt_join = false;
    Netlist net = netlist::random_fuzz_netlist(rng, has_mt_join);
    auto& group =
        groups[{net.is_multithreaded(), net.threads(), net.meb_kind()}];
    if (group.size() < 4) group.push_back(std::move(net));
  }

  std::size_t unions = 0;
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    ++unions;
    const Netlist all = disjoint_union(members);
    std::vector<PerfOptions> configs(2);
    configs[1].arbiter = mt::ArbiterKind::kOblivious;
    if (std::get<0>(key)) {
      for (const std::size_t k : {0u, 1u}) {
        configs.emplace_back().meb_shared_slots = k;
      }
    }
    for (const PerfOptions& options : configs) {
      SCOPED_TRACE("S=" + std::to_string(std::get<1>(key)) + " members=" +
                   std::to_string(members.size()));
      std::vector<PerfSinkBound> want;
      double aggregate = 1.0;
      for (std::size_t i = 0; i < members.size(); ++i) {
        const PerfReport part = analysis::analyze_perf(members[i], options);
        ASSERT_TRUE(part.converged);
        ASSERT_TRUE(part.karp_agrees);
        aggregate = std::min(aggregate, part.aggregate_bound);
        const std::string prefix = "u" + std::to_string(i) + "_";
        for (PerfSinkBound sb : part.sinks) {
          sb.sink = prefix + sb.sink;
          if (!sb.channel.empty()) sb.channel = prefix + sb.channel;
          want.push_back(std::move(sb));
        }
      }
      std::sort(want.begin(), want.end(),
                [](const PerfSinkBound& a, const PerfSinkBound& b) {
                  return a.sink < b.sink;
                });

      const PerfReport got = analysis::analyze_perf(all, options);
      EXPECT_TRUE(got.converged);
      EXPECT_TRUE(got.karp_agrees);
      EXPECT_EQ(got.aggregate_bound, aggregate);
      ASSERT_EQ(got.sinks.size(), want.size());
      for (std::size_t s = 0; s < want.size(); ++s) expect_same_bound(got.sinks[s], want[s]);
    }
  }
  EXPECT_GE(unions, 3u) << "the corpus produced too few same-shape groups";
}

}  // namespace
