// Per-code tests of the static netlist analyzer: each check is driven
// through a minimal programmatic netlist (CircuitBuilder's unchecked
// netlist() for shapes it can describe, raw Netlist::add for the
// miswirings it refuses outright), plus the arbiter/option
// sensitivity that distinguishes the MT protocol checks (MTE021-023)
// from the structural ones. Fixture goldens (test_fixtures.cpp) pin the
// rendered output for the same shapes.
#include <gtest/gtest.h>

#include <string>

#include "analysis/analyze.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"

namespace {

using namespace mte;
using analysis::AnalysisOptions;
using analysis::AnalysisReport;
using analysis::analyze;
using netlist::CircuitBuilder;
using netlist::Netlist;
using netlist::Node;

std::size_t count_code(const AnalysisReport& report, const std::string& code) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

bool has_code(const AnalysisReport& report, const std::string& code) {
  return count_code(report, code) > 0;
}

/// src -> b0 -> snk, the smallest clean pipeline.
Netlist clean_pipeline() {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");
  return b.netlist();
}

/// fork -> {arm a with `buffers_a` EBs, arm b with `buffers_b` EBs} -> join.
Netlist diamond(unsigned buffers_a, unsigned buffers_b) {
  CircuitBuilder b;
  const auto f = b.source("src") >> b.fork("f", 2);
  const auto j = b.join("j", 2);
  j >> b.buffer("bo") >> b.sink("snk");
  const auto arm = [&](unsigned port, const std::string& prefix, unsigned buffers) {
    netlist::PortRef tail = f.out(port);
    for (unsigned i = 0; i < buffers; ++i) {
      tail = (tail >> b.buffer(prefix + std::to_string(i))).out();
    }
    tail >> j;
  };
  arm(0, "a", buffers_a);
  arm(1, "b", buffers_b);
  return b.netlist();
}

TEST(Analyze, CleanPipelineHasNoDiagnostics) {
  EXPECT_EQ(analyze(clean_pipeline()).count(), 0u);
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  EXPECT_EQ(analyze(mt).count(), 0u);
}

TEST(Analyze, Mte001UnconnectedOutput) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0");  // b0's output dangles
  const auto report = analyze(b.netlist());
  EXPECT_EQ(count_code(report, "MTE001"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(Analyze, Mte002UndrivenInput) {
  CircuitBuilder b;
  b.buffer("b0") >> b.sink("snk");  // b0's input is undriven
  EXPECT_EQ(count_code(analyze(b.netlist()), "MTE002"), 1u);
}

TEST(Analyze, Mte003IllegalFanout) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto s0 = n.add(Node::sink("s0"));
  const auto s1 = n.add(Node::sink("s1"));
  n.connect(src, 0, s0, 0);
  n.connect(src, 0, s1, 0);
  const auto report = analyze(n);
  EXPECT_EQ(count_code(report, "MTE003"), 1u);
  EXPECT_EQ(report.diagnostics()[0].component, "src");
}

TEST(Analyze, Mte004MultipleDrivers) {
  Netlist n;
  const auto s0 = n.add(Node::source("s0"));
  const auto s1 = n.add(Node::source("s1"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(s0, 0, snk, 0);
  n.connect(s1, 0, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE004"), 1u);
}

TEST(Analyze, Mte005BadEdgeReference) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 3, snk, 0);  // src has one output port
  EXPECT_GE(count_code(analyze(n), "MTE005"), 1u);

  Netlist m;
  m.add(Node::source("src"));
  m.connect(0, 0, 99, 0);  // node 99 does not exist
  EXPECT_GE(count_code(analyze(m), "MTE005"), 1u);
}

TEST(Analyze, Mte006DuplicateName) {
  Netlist n;
  const auto a = n.add(Node::buffer("dup"));
  const auto b = n.add(Node::buffer("dup"));
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, a, 0);
  n.connect(a, 0, b, 0);
  n.connect(b, 0, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE006"), 1u);
}

TEST(Analyze, Mte010Mte011DeadRing) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");
  b.buffer("d0") >> b.buffer("d1") >> b.node("d0");
  const auto report = analyze(b.netlist());
  EXPECT_EQ(count_code(report, "MTE010"), 2u);  // d0, d1 unreachable
  EXPECT_EQ(count_code(report, "MTE011"), 2u);  // d0, d1 cannot drain
  EXPECT_FALSE(report.has_errors());            // liveness is warning-only
}

TEST(Analyze, Mte020BufferlessLoop) {
  CircuitBuilder b;
  const auto m = b.source("src") >> b.merge("m", 2);
  const auto br = m >> b.function("inc", "inc") >> b.branch("br", "even");
  br.when_true() >> m;
  br.when_false() >> b.sink("snk");
  EXPECT_EQ(count_code(analyze(b.netlist()), "MTE020"), 1u);
}

TEST(Analyze, BufferedMergeLoopIsLegal) {
  // The same loop with one EB on the path: storage breaks MTE020, and a
  // merge re-entry (fires on either input) is not a lazy-join deadlock.
  CircuitBuilder b;
  const auto m = b.source("src") >> b.merge("m", 2);
  const auto br = m >> b.buffer("b") >> b.branch("br", "even");
  br.when_true() >> m;
  br.when_false() >> b.sink("snk");
  const auto report = analyze(b.netlist());
  EXPECT_FALSE(has_code(report, "MTE020"));
  EXPECT_FALSE(has_code(report, "MTE030"));
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyze, Mte021MtReconvergenceUnderReadyAwareArbiter) {
  const Netlist mt = diamond(1, 1).to_multithreaded(4, mt::MebKind::kFull);
  const auto report = analyze(mt);
  ASSERT_EQ(count_code(report, "MTE021"), 1u);
  const auto errors = report.by_severity(analysis::Severity::kError);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].component, "f");
  EXPECT_NE(errors[0].message.find("join 'j'"), std::string::npos);

  // The oblivious TDM arbiter never reads downstream ready: no cycle.
  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);

  // The single-thread diamond has no speculative arbitration at all.
  EXPECT_EQ(analyze(diamond(1, 1)).count(), 0u);
}

TEST(Analyze, Mte022SpeculativeFeedbackWithoutFork) {
  // Two independent MEB arms reconverging on a lazy join: no (fork,
  // join) pair, so MTE021 cannot fire — the signal-graph SCC check
  // catches the same valid/ready coupling as a warning.
  CircuitBuilder b;
  const auto j = b.source("s0") >> b.buffer("a") >> b.join("j", 2);
  b.source("s1") >> b.buffer("b") >> j;
  j >> b.buffer("bo") >> b.sink("snk");
  const Netlist mt = b.netlist().to_multithreaded(2, mt::MebKind::kFull);

  const auto report = analyze(mt);
  EXPECT_FALSE(has_code(report, "MTE021"));
  EXPECT_EQ(count_code(report, "MTE022"), 1u);
  EXPECT_FALSE(report.has_errors());

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);
}

TEST(Analyze, Mte023SingleChannelValidReadyLoop) {
  CircuitBuilder b;
  const auto br = b.source("src") >> b.buffer("m") >> b.branch("br", "even");
  br.when_true() >> b.sink("s0");
  br.when_false() >> b.sink("s1");
  const Netlist mt = b.netlist().to_multithreaded(2, mt::MebKind::kFull);

  const auto report = analyze(mt);
  EXPECT_EQ(count_code(report, "MTE023"), 1u);
  EXPECT_EQ(report.note_count(), 1u);

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);
}

TEST(Analyze, Mte030JoinFeedbackDeadlock) {
  CircuitBuilder b;
  const auto j = b.source("src") >> b.join("j", 2);
  const auto f = j >> b.buffer("b0") >> b.fork("f", 2);
  f >> b.sink("snk");
  f >> b.buffer("b1") >> j;
  const auto report = analyze(b.netlist());
  EXPECT_EQ(count_code(report, "MTE030"), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(has_code(report, "MTE020"));  // buffers give the loop storage
}

TEST(Analyze, Mte031SlackImbalance) {
  const auto report = analyze(diamond(3, 0));
  ASSERT_EQ(count_code(report, "MTE031"), 1u);
  EXPECT_FALSE(report.has_errors());

  EXPECT_FALSE(has_code(analyze(diamond(1, 1)), "MTE031"));
  // Difference of one buffer is normal pipelining, not a hazard.
  EXPECT_FALSE(has_code(analyze(diamond(1, 0)), "MTE031"));
}

TEST(Analyze, Mte031AppliesToMtDiamondOnlyWhenNotAlreadyHazardous) {
  const Netlist mt = diamond(3, 0).to_multithreaded(2, mt::MebKind::kFull);
  // Ready-aware: the reconvergence error subsumes the slack warning.
  const auto ready_aware = analyze(mt);
  EXPECT_TRUE(has_code(ready_aware, "MTE021"));
  EXPECT_FALSE(has_code(ready_aware, "MTE031"));
  // Oblivious: the diamond is protocol-safe, so the slack advice shows.
  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  const auto safe = analyze(mt, oblivious);
  EXPECT_FALSE(has_code(safe, "MTE021"));
  EXPECT_TRUE(has_code(safe, "MTE031"));
}

TEST(Analyze, Mte041HybridPoolLargerThanThreadCount) {
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  AnalysisOptions opt;
  opt.meb_shared_slots = 6;
  EXPECT_EQ(count_code(analyze(mt, opt), "MTE041"), 1u);
  opt.meb_shared_slots = 4;
  EXPECT_EQ(analyze(mt, opt).count(), 0u);
}

TEST(Analyze, Mte042HybridPoolOfZeroSlots) {
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  AnalysisOptions opt;
  opt.meb_shared_slots = 0;
  const auto report = analyze(mt, opt);
  EXPECT_EQ(count_code(report, "MTE042"), 1u);
  EXPECT_EQ(report.note_count(), 1u);
}

TEST(Analyze, Mte043SingleThreadMtDesign) {
  const Netlist mt = clean_pipeline().to_multithreaded(1, mt::MebKind::kFull);
  EXPECT_EQ(count_code(analyze(mt), "MTE043"), 1u);
}

TEST(Analyze, Mte044ZeroRateEndpoints) {
  CircuitBuilder b;
  b.source("src").rate(0.0) >> b.sink("snk").rate(0.0);
  EXPECT_EQ(count_code(analyze(b.netlist()), "MTE044"), 2u);
}

TEST(Analyze, WiringErrorsGateDeeperChecks) {
  // With a dangling edge reference the graph shape is unreliable: only
  // naming/wiring/capacity codes may appear, never the graph checks.
  Netlist n;
  n.add(Node::source("src"));
  n.connect(0, 0, 99, 0);
  const auto report = analyze(n);
  EXPECT_TRUE(has_code(report, "MTE005"));
  for (const auto& d : report.diagnostics()) {
    EXPECT_TRUE(d.code < "MTE010" || d.code >= "MTE040") << d.code;
  }
}

TEST(Analyze, BuilderMethodMatchesFreeFunction) {
  CircuitBuilder b = CircuitBuilder::from(diamond(1, 1));
  b.then_multithreaded(4, mt::MebKind::kFull);
  const auto via_method = b.analyze();
  const auto via_free = analyze(diamond(1, 1).to_multithreaded(4, mt::MebKind::kFull));
  ASSERT_EQ(via_method.count(), via_free.count());
  for (std::size_t i = 0; i < via_method.count(); ++i) {
    EXPECT_EQ(via_method.diagnostics()[i].code, via_free.diagnostics()[i].code);
  }
}

TEST(Analyze, ReconvergentPairsMinimality) {
  // Nested diamonds: only the innermost (fork, join) pair per join is
  // reported, one MTE021 per divergence point.
  CircuitBuilder b;
  const auto f0 = b.source("src") >> b.fork("f0", 2);
  const auto f1 = f0 >> b.fork("f1", 2);
  const auto j1 = b.join("j1", 2);
  const auto j0 = b.join("j0", 2);
  f1 >> j1;
  f1 >> j1;
  j1 >> j0;
  f0 >> j0;
  j0 >> b.sink("snk");
  const Netlist& n = b.netlist();
  const auto pairs = analysis::reconvergent_pairs(n);
  ASSERT_EQ(pairs.size(), 2u);
  // j1 pairs with f1 (not f0, which also reaches both of j1's inputs).
  EXPECT_EQ(n.nodes()[pairs[0].fork_id].name, "f1");
  EXPECT_EQ(n.nodes()[pairs[0].join_id].name, "j1");
  EXPECT_EQ(n.nodes()[pairs[1].fork_id].name, "f0");
  EXPECT_EQ(n.nodes()[pairs[1].join_id].name, "j0");
}

TEST(Analyze, BuilderAnalyzeIsQueryableWithoutThrowing) {
  netlist::CircuitBuilder b;
  auto src = b.source("src");
  auto f = b.fork("f", 2);
  auto ba = b.buffer("ba");
  auto bb = b.buffer("bb");
  auto j = b.join("j", 2);
  auto bo = b.buffer("bo");
  auto snk = b.sink("snk");
  src >> f;
  f >> ba >> j;
  f >> bb >> j;
  j >> bo >> snk;
  b.then_multithreaded(4, mt::MebKind::kFull);

  const auto report = b.analyze();  // never throws on findings
  EXPECT_TRUE(has_code(report, "MTE021"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_THROW((void)b.build(), netlist::BuildError);

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_FALSE(b.analyze(oblivious).has_errors());
}

TEST(Analyze, BuilderBuildRejectsJoinDeadlockWithCode) {
  netlist::CircuitBuilder b;
  auto src = b.source("src");
  auto j = b.join("j", 2);
  auto b0 = b.buffer("b0");
  auto f = b.fork("f", 2);
  auto snk = b.sink("snk");
  auto b1 = b.buffer("b1");
  src >> j;
  j >> b0 >> f;
  f >> snk;
  f >> b1 >> j;
  try {
    (void)b.build();
    FAIL() << "expected BuildError";
  } catch (const netlist::BuildError& e) {
    EXPECT_NE(std::string(e.what()).find("MTE030"), std::string::npos);
  }
}

}  // namespace
