#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"

namespace mte::netlist {
namespace {

Netlist linear_pipeline() {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >> b.buffer("b1") >>
      b.sink("snk");
  return b.build();
}

TEST(Netlist, AddAndConnectAreUncheckedPrimitives) {
  // add() assigns ids in order and overwrites the spec's id; connect()
  // records edges as given, even ones no analyzer would accept.
  Netlist n;
  Node spec = Node::fork("f", 3);
  spec.id = 42;
  EXPECT_EQ(n.add(Node::source("src", 0.5)), 0u);
  EXPECT_EQ(n.add(spec), 1u);
  n.connect(0, 0, 1, 0);
  n.connect(1, 7, 99, 0);
  ASSERT_EQ(n.nodes().size(), 2u);
  EXPECT_EQ(n.node(1).id, 1u);
  EXPECT_EQ(n.node(1).outputs, 3u);
  EXPECT_EQ(n.node(0).rate, 0.5);
  ASSERT_EQ(n.edges().size(), 2u);
  EXPECT_EQ(n.edges()[1].id, 1u);
  EXPECT_EQ(n.edges()[1].from_port, 7u);
  EXPECT_EQ(n.edges()[1].to, 99u);
}

TEST(Netlist, CountsByType) {
  const Netlist n = linear_pipeline();
  EXPECT_EQ(n.count(NodeType::kBuffer), 2u);
  EXPECT_EQ(n.count(NodeType::kSource), 1u);
  EXPECT_EQ(n.count(NodeType::kFunction), 1u);
}

TEST(Netlist, TransformPreservesStructure) {
  const Netlist single = linear_pipeline();
  const Netlist multi = single.to_multithreaded(8, mt::MebKind::kReduced);
  EXPECT_EQ(multi.threads(), 8u);
  EXPECT_EQ(multi.meb_kind(), mt::MebKind::kReduced);
  EXPECT_EQ(multi.nodes().size(), single.nodes().size());
  EXPECT_EQ(multi.edges().size(), single.edges().size());
  EXPECT_FALSE(analysis::analyze(multi).has_errors());
}

TEST(Netlist, TransformTwiceThrows) {
  const Netlist multi = linear_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  EXPECT_THROW((void)multi.to_multithreaded(8, mt::MebKind::kFull), std::logic_error);
}

TEST(Netlist, DotExportSingleVsMulti) {
  const Netlist single = linear_pipeline();
  const std::string dot1 = single.to_dot();
  EXPECT_NE(dot1.find("digraph"), std::string::npos);
  EXPECT_NE(dot1.find("EB"), std::string::npos);
  EXPECT_EQ(dot1.find("MEB"), std::string::npos);

  const std::string dot2 =
      single.to_multithreaded(4, mt::MebKind::kReduced).to_dot();
  EXPECT_NE(dot2.find("reduced MEB"), std::string::npos);
}

}  // namespace
}  // namespace mte::netlist
