#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/analyze.hpp"
#include "netlist/builder.hpp"
#include "netlist/elaborate.hpp"

namespace mte::netlist {
namespace {

Netlist square_pipeline() {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >> b.buffer("b1") >>
      b.sink("snk");
  return b.build();
}

/// src -> merge -> inc -> buffer -> branch(even); odd values (the false
/// exit) loop back into the merge, even ones leave through the sink.
CircuitBuilder increment_loop() {
  CircuitBuilder b;
  const auto m = b.source("src") >> b.merge("m", 2);
  const auto br = m >> b.function("inc", "inc") >> b.buffer("b") >> b.branch("br", "even");
  br.when_false() >> m;
  br.when_true() >> b.sink("snk");
  return b;
}

TEST(Elaborate, SingleThreadPipelineComputes) {
  Elaboration e(square_pipeline(), FunctionRegistry::with_defaults());
  auto& src = e.source("src");
  auto& snk = e.sink("snk");
  src.set_tokens({2, 3, 4, 5});
  e.simulator().reset();
  e.simulator().run(30);
  EXPECT_EQ(snk.received(), (std::vector<Word>{4, 9, 16, 25}));
}

TEST(Elaborate, InvalidNetlistRejected) {
  Netlist n;
  n.add(Node::source("src"));
  EXPECT_THROW(Elaboration(n, FunctionRegistry::with_defaults()), ElaborationError);
}

TEST(Elaborate, UnknownFunctionRejected) {
  CircuitBuilder b;
  b.source("src") >> b.function("f", "no_such_fn") >> b.sink("snk");
  EXPECT_THROW(Elaboration(b.build(), FunctionRegistry::with_defaults()),
               ElaborationError);
}

TEST(Elaborate, ForkJoinDiamond) {
  CircuitBuilder b;
  const auto fork = b.source("src") >> b.fork("fork", 2);
  const auto join = b.join("join", 2);
  fork >> b.buffer("b0") >> join;
  fork >> b.function("dbl", "double") >> b.buffer("b1") >> join;
  join >> b.sink("snk");

  Elaboration e(b.build(), FunctionRegistry::with_defaults());
  auto& src_h = e.source("src");
  auto& snk_h = e.sink("snk");
  src_h.set_tokens({1, 2, 3});
  e.simulator().reset();
  e.simulator().run(50);
  // join combiner sums: x + 2x = 3x.
  EXPECT_EQ(snk_h.received(), (std::vector<Word>{3, 6, 9}));
}

TEST(Elaborate, BranchMergeLoopCollatzLikeFlow) {
  // src -> merge -> inc -> buffer -> branch(even): true exits, false loops.
  Elaboration e(increment_loop().build(), FunctionRegistry::with_defaults());
  auto& src_h = e.source("src");
  auto& snk_h = e.sink("snk");
  src_h.set_tokens({1, 2, 5, 8});
  e.simulator().reset();
  e.simulator().run(100);
  // Each token is incremented until even: 1->2, 2->...->4? No: 2 is
  // incremented once to 3 (odd, loops) then 4 (even, exits).
  EXPECT_EQ(snk_h.received(), (std::vector<Word>{2, 4, 6, 10}));
}

TEST(Elaborate, MultithreadedPipeline) {
  const Netlist multi =
      square_pipeline().to_multithreaded(4, mt::MebKind::kReduced);
  Elaboration e(multi, FunctionRegistry::with_defaults());
  auto& src = e.mt_source("src");
  auto& snk = e.mt_sink("snk");
  for (std::size_t t = 0; t < 4; ++t) {
    src.set_tokens(t, {t + 2, t + 10});
  }
  e.simulator().reset();
  e.simulator().run(100);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(snk.count(t), 2u) << "thread " << t;
    EXPECT_EQ(snk.received(t)[0], (t + 2) * (t + 2));
    EXPECT_EQ(snk.received(t)[1], (t + 10) * (t + 10));
  }
}

TEST(Elaborate, MultithreadedBranchLoop) {
  CircuitBuilder b = increment_loop();
  b.then_multithreaded(2, mt::MebKind::kFull);
  Elaboration e = b.elaborate();
  auto& src_h = e.mt_source("src");
  auto& snk_h = e.mt_sink("snk");
  src_h.set_tokens(0, {1, 3});
  src_h.set_tokens(1, {2, 4});
  e.simulator().reset();
  e.simulator().run(300);
  EXPECT_EQ(snk_h.received(0), (std::vector<Word>{2, 4}));
  EXPECT_EQ(snk_h.received(1), (std::vector<Word>{4, 6}));
}

TEST(Elaborate, MtVarLatencySharedUnit) {
  // A shared variable-latency unit time-multiplexed by two threads.
  CircuitBuilder b;
  b.source("src") >> b.var_latency("v", 1, 4) >> b.sink("snk");
  Elaboration e = b.then_multithreaded(2, mt::MebKind::kFull).elaborate();
  e.mt_source("src").set_tokens(0, {1, 2, 3});
  e.mt_source("src").set_tokens(1, {10, 20, 30});
  e.simulator().reset();
  e.simulator().run(200);
  EXPECT_EQ(e.mt_sink("snk").received(0), (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(e.mt_sink("snk").received(1), (std::vector<Word>{10, 20, 30}));
}

TEST(Elaborate, SingleThreadVarLatencySupported) {
  CircuitBuilder b;
  b.source("src") >> b.var_latency("v", 1, 4) >> b.sink("snk");
  Elaboration e = b.elaborate();
  e.source("src").set_tokens({7, 8, 9});
  e.simulator().reset();
  e.simulator().run(100);
  EXPECT_EQ(e.sink("snk").received(), (std::vector<Word>{7, 8, 9}));
}

// --- the elaboration gate -----------------------------------------------------

Netlist bad_node_reference() {
  Netlist n;
  n.add(Node::source("src"));
  n.connect(0, 0, 99, 0);  // node 99 does not exist
  return n;
}

Netlist bad_port_reference() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 3, snk, 0);  // a source has one output port
  return n;
}

Netlist duplicate_name() {
  Netlist n;
  const auto src = n.add(Node::source("b"));
  const auto b = n.add(Node::buffer("b"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, b, 0);
  n.connect(b, 0, snk, 0);
  return n;
}

Netlist unconnected_port() {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0");  // b0's output dangles
  return b.netlist();
}

Netlist mt_reconvergent_diamond() {
  CircuitBuilder b;
  const auto f = b.source("src") >> b.fork("f", 2);
  const auto j = b.join("j", 2);
  f >> b.buffer("ba") >> j;
  f >> b.buffer("bb") >> j;
  j >> b.buffer("bo") >> b.sink("snk");
  return b.netlist().to_multithreaded(2, mt::MebKind::kFull);
}

Netlist join_feedback_deadlock() {
  CircuitBuilder b;
  const auto j = b.source("src") >> b.join("j", 2);
  const auto f = j >> b.buffer("b0") >> b.fork("f", 2);
  f >> b.sink("snk");
  f >> b.buffer("b1") >> j;
  return b.netlist();
}

struct GateCase {
  const char* name;
  Netlist (*make)();
  mt::ArbiterKind arbiter;
  const char* code;  ///< the ElaborationError's code; nullptr: elaborates
};

void PrintTo(const GateCase& c, std::ostream* os) { *os << c.name; }

class GateMatchesAnalyzer : public ::testing::TestWithParam<GateCase> {};

// Elaboration refuses exactly the analyzer's elaboration errors, with the
// analyzer's own diagnostics, before any component is built; everything
// else elaborates, even netlists analyze() flags (MTE030).
TEST_P(GateMatchesAnalyzer, ExpectedCode) {
  const GateCase& c = GetParam();
  const Netlist net = c.make();
  ElaborationOptions options;
  options.arbiter = c.arbiter;

  analysis::AnalysisOptions analysis_options;
  analysis_options.arbiter = c.arbiter;
  const auto full = analysis::analyze(net, analysis_options);
  const auto gate = analysis::elaboration_errors(net, c.arbiter);
  for (const auto& d : gate.diagnostics()) {
    const bool in_full =
        std::any_of(full.diagnostics().begin(), full.diagnostics().end(),
                    [&d](const analysis::Diagnostic& f) {
                      return f.code == d.code && f.component == d.component &&
                             f.message == d.message;
                    });
    EXPECT_TRUE(in_full) << d.code << " " << d.message;
  }

  if (c.code == nullptr) {
    EXPECT_TRUE(gate.empty()) << gate.render_text();
    EXPECT_NO_THROW(Elaboration(net, FunctionRegistry::with_defaults(),
                                ComponentFactory::defaults(), options));
    return;
  }
  try {
    Elaboration e(net, FunctionRegistry::with_defaults(), ComponentFactory::defaults(),
                  options);
    FAIL() << "elaborated a netlist with " << c.code;
  } catch (const ElaborationError& err) {
    EXPECT_NE(std::string(err.what()).find(std::string("[") + c.code + "]"),
              std::string::npos)
        << err.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Elaborate, GateMatchesAnalyzer,
    ::testing::Values(
        GateCase{"bad_node_ref", bad_node_reference, mt::ArbiterKind::kRoundRobin,
                 "MTE005"},
        GateCase{"bad_port_ref", bad_port_reference, mt::ArbiterKind::kRoundRobin,
                 "MTE005"},
        GateCase{"duplicate_name", duplicate_name, mt::ArbiterKind::kRoundRobin,
                 "MTE006"},
        GateCase{"unconnected_port", unconnected_port, mt::ArbiterKind::kRoundRobin,
                 "MTE001"},
        GateCase{"mt_diamond_round_robin", mt_reconvergent_diamond,
                 mt::ArbiterKind::kRoundRobin, "MTE021"},
        GateCase{"mt_diamond_oblivious", mt_reconvergent_diamond,
                 mt::ArbiterKind::kOblivious, nullptr},
        GateCase{"join_feedback_deadlock", join_feedback_deadlock,
                 mt::ArbiterKind::kRoundRobin, nullptr}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mte::netlist
