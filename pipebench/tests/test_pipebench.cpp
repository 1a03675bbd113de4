// Tests of the pipeline benchmark's own code: the mesh generator, the
// command line, the reference gate and the metric tables.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "cli.hpp"
#include "mesh.hpp"
#include "netlist/text_format.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

TEST(Mesh, TextIsByteIdenticalPerSeed) {
  EXPECT_EQ(mesh_enl(12, 7), mesh_enl(12, 7));
  EXPECT_NE(mesh_enl(12, 7), mesh_enl(12, 8));
}

TEST(Mesh, SeedChangesAttributesNotSize) {
  const auto a = mte::netlist::parse_netlist(mesh_enl(12, 1));
  const auto b = mte::netlist::parse_netlist(mesh_enl(12, 2));
  EXPECT_EQ(a.nodes().size(), b.nodes().size());
  EXPECT_EQ(a.edges().size(), b.edges().size());
}

TEST(Mesh, BuildAcceptsItWithNoErrorDiagnostics) {
  const auto builder = mesh_builder(kMeshLanes, 3);
  const auto report = builder.analyze();
  EXPECT_EQ(report.error_count(), 0u) << report.render_text();
  EXPECT_NO_THROW((void)builder.build());
}

TEST(Mesh, ParsedTextRebuildsToTheSameNetlist) {
  const std::string text = mesh_enl(12, 5);
  const auto rebuilt = build_parsed(mte::netlist::parse_netlist(text));
  EXPECT_TRUE(rebuilt.is_multithreaded());
  EXPECT_EQ(rebuilt.threads(), kMeshThreads);
  EXPECT_EQ(mte::netlist::serialize_netlist(rebuilt), text);
}

std::string usage_error(const std::vector<std::string>& args) {
  try {
    (void)parse_options(args);
  } catch (const UsageError& ex) {
    return ex.what();
  }
  return "";
}

TEST(Cli, ParsesEveryOption) {
  const Options o = parse_options(
      {"--workload", "mesh_sim", "--seed", "42", "--seconds", "10", "--trace", "1"});
  EXPECT_EQ(o.workload, "mesh_sim");
  EXPECT_EQ(o.seed, 42u);
  EXPECT_DOUBLE_EQ(o.seconds, 10.0);
  EXPECT_TRUE(o.trace);
}

TEST(Cli, UnknownWorkloadFailsWithAClearMessage) {
  const std::string msg = usage_error({"--workload", "mesh", "--seed", "1"});
  EXPECT_NE(msg.find("unknown workload 'mesh'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("mesh_sim"), std::string::npos) << msg;
}

TEST(Cli, MalformedSeedFailsWithAClearMessage) {
  for (const std::string seed : {"12x", "-1", "", "1.5", "99999999999999999999"}) {
    const std::string msg = usage_error({"--workload", "mesh_sim", "--seed", seed});
    EXPECT_NE(msg.find("--seed: '" + seed + "'"), std::string::npos) << msg;
  }
}

TEST(Cli, RejectsOtherBadArguments) {
  EXPECT_NE(usage_error({"--seed", "1"}), "");
  EXPECT_NE(usage_error({"--workload", "mesh_sim", "--trace", "2"}), "");
  EXPECT_NE(usage_error({"--workload", "mesh_sim", "--seconds", "0"}), "");
  EXPECT_NE(usage_error({"--workload", "mesh_sim", "--seed"}), "");
  EXPECT_NE(usage_error({"--workload", "mesh_sim", "--verbose"}), "");
}

TEST(Gate, CommittedReferenceIsEnforced) {
  const ReferenceBook book = ReferenceBook::parse(
      "# comment\nmesh_sim 4 mesh.stats 00ff\nmesh_sim 4 mesh.sinks 10:ab\n");
  Gate gate(book, "mesh_sim", 4);
  EXPECT_TRUE(gate.check("mesh.stats", "00ff"));
  EXPECT_FALSE(gate.check("mesh.sinks", "11:ab"));  // a perturbed value fails
  ASSERT_EQ(gate.mismatches().size(), 1u);
  EXPECT_NE(gate.mismatches()[0].find("mesh.sinks"), std::string::npos);
}

TEST(Gate, FirstPassIsTheReferenceForUnlistedSeeds) {
  const ReferenceBook book;
  Gate gate(book, "dse_default", 9);
  EXPECT_TRUE(gate.check("csv", "aa"));
  EXPECT_TRUE(gate.check("csv", "aa"));
  EXPECT_FALSE(gate.check("csv", "ab"));
  EXPECT_EQ(gate.render(), "dse_default 9 csv aa\n");
}

TEST(Gate, MalformedReferenceLineIsRejected) {
  EXPECT_THROW((void)ReferenceBook::parse("mesh_sim x key value\n"), std::invalid_argument);
  EXPECT_THROW((void)ReferenceBook::parse("mesh_sim 1 key\n"), std::invalid_argument);
}

TEST(Stats, QuartilesAndTail) {
  std::vector<double> v;
  for (int i = 1; i <= 64; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 32.5);
  const Tail t = tail(v);
  EXPECT_EQ(t.percentile, 84);  // 64 * 0.16 >= 10 > 64 * 0.15
  EXPECT_EQ(tail({1.0, 2.0}).percentile, 0);
  EXPECT_NEAR(scaling_exponent(100, 1.0, 200, 4.0), 2.0, 1e-12);
}

TEST(Metrics, TablesMatchBenchmarkJson) {
  std::ifstream in(std::string(PIPEBENCH_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in);
  std::ostringstream text;
  text << in.rdbuf();
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *table) {
      EXPECT_NE(text.str().find("\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit + "\""),
                std::string::npos)
          << m.name;
    }
  }
}

}  // namespace
}  // namespace pipebench
