// The lint-vs-simulation cross-check: the static analyzer's verdicts
// must agree with what the kernels actually do.
//
//   * lint-clean (no errors) => the elaborated design makes forward
//     progress on BOTH settle kernels, and the event kernel keeps its
//     port-granular schedule (no naive demotion) when the signal-graph
//     checks (MTE022/MTE023) found no valid/ready coupling;
//   * a flagged structural deadlock (MTE030) => the simulation observably
//     stalls from reset on both kernels.
//
// The clean population is the shared seeded fuzz generator — the same
// netlists the kernel-equivalence fuzzer locksteps and mte_lint's
// --fuzz-corpus mode lints in CI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>

#include "analysis/analyze.hpp"
#include "netlist/builder.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/fuzz.hpp"
#include "netlist/netlist.hpp"
#include "sim/protocol_monitor.hpp"

namespace {

using namespace mte;
using netlist::Elaboration;
using netlist::ElaborationOptions;
using netlist::Netlist;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("MTE_FUZZ_SEED"); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEEu;
}

/// Gives every source an endless generator (rates stay as the netlist
/// declares them — the factory already applied those).
void arm_sources(const Netlist& net, Elaboration& e) {
  for (const auto& node : net.nodes()) {
    if (node.type != netlist::NodeType::kSource) continue;
    if (e.is_multithreaded()) {
      auto& src = e.mt_source(node.name);
      for (std::size_t t = 0; t < e.threads(); ++t) {
        src.set_generator(t, [t](std::uint64_t i) { return (t << 24) + i; });
      }
    } else {
      e.source(node.name).set_generator([](std::uint64_t i) { return i; });
    }
  }
}

/// Elaborates on the given kernel, runs `cycles`, and returns the total
/// number of handshake transfers observed across every channel probe.
struct RunResult {
  std::uint64_t transfers = 0;
  bool demoted = false;
};

RunResult run_kernel(const Netlist& net, sim::KernelKind kernel,
                     mt::ArbiterKind arbiter, sim::Cycle cycles = 400) {
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();
  ElaborationOptions opt;
  opt.kernel = kernel;
  opt.arbiter = arbiter;
  auto e = std::make_unique<Elaboration>(net, registry, factory, opt);
  arm_sources(net, *e);
  e->simulator().reset();
  e->simulator().run(cycles);
  RunResult r;
  for (const auto& name : e->channel_names()) r.transfers += e->probe(name).count();
  r.demoted = e->simulator().demoted_to_naive();
  return r;
}

/// Runs with protocol monitors attached and a no-progress watchdog armed;
/// returns the WatchdogError diagnosis, or "" when it never fired.
std::string run_with_watchdog(const Netlist& net, sim::KernelKind kernel,
                              mt::ArbiterKind arbiter, sim::Cycle deadline,
                              sim::Cycle cycles = 400) {
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();
  sim::ProtocolMonitor monitor;  // outlives the simulator below
  ElaborationOptions opt;
  opt.kernel = kernel;
  opt.arbiter = arbiter;
  auto e = std::make_unique<Elaboration>(net, registry, factory, opt);
  arm_sources(net, *e);
  e->attach_monitor(monitor);
  e->simulator().set_watchdog(deadline);
  e->simulator().reset();
  try {
    e->simulator().run(cycles);
  } catch (const sim::WatchdogError& ex) {
    return ex.diagnosis();
  }
  return {};
}

bool has_code(const analysis::AnalysisReport& report, const std::string& code) {
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

/// src -> join <- (fork feedback): the MTE030 fixture shape.
Netlist join_cycle_netlist() {
  // build() refuses MTE030, so take the unchecked netlist.
  netlist::CircuitBuilder b;
  const auto j = b.source("src") >> b.join("j", 2);
  const auto f = j >> b.buffer("b0") >> b.fork("f", 2);
  f >> b.sink("snk");
  f >> b.buffer("b1") >> j;
  return b.netlist();
}

TEST(LintVsSim, CleanFuzzNetlistsMakeProgressOnBothKernels) {
  const std::uint64_t base = base_seed();
  const int cases = 24;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    SCOPED_TRACE("MTE_FUZZ_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    bool has_mt_join = false;
    const Netlist net = netlist::random_fuzz_netlist(rng, has_mt_join);
    const mt::ArbiterKind arbiter =
        has_mt_join ? mt::ArbiterKind::kOblivious : mt::ArbiterKind::kRoundRobin;

    analysis::AnalysisOptions options;
    options.arbiter = arbiter;
    const auto report = analysis::analyze(net, options);
    ASSERT_FALSE(report.has_errors()) << report.render_text();
    const bool coupled = has_code(report, "MTE022") || has_code(report, "MTE023");

    const RunResult naive = run_kernel(net, sim::KernelKind::kNaive, arbiter);
    const RunResult event = run_kernel(net, sim::KernelKind::kEventDriven, arbiter);
    EXPECT_GT(naive.transfers, 0u) << "naive kernel made no progress";
    EXPECT_GT(event.transfers, 0u) << "event kernel made no progress";
    // No statically-detected valid/ready coupling => the event kernel
    // must not have fallen back to naive settling.
    if (!coupled) {
      EXPECT_FALSE(event.demoted);
    }
  }
}

TEST(LintVsSim, FlaggedStructuralDeadlockStallsFromReset) {
  const Netlist net = join_cycle_netlist();
  ASSERT_TRUE(has_code(analysis::analyze(net), "MTE030"));

  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    const RunResult r = run_kernel(net, kernel, mt::ArbiterKind::kRoundRobin);
    EXPECT_EQ(r.transfers, 0u) << "deadlocked netlist transferred tokens";
  }
}

TEST(LintVsSim, FlaggedStructuralDeadlockStallsMultithreaded) {
  // MTE030 is arbiter-independent: the MT transform of the same loop
  // deadlocks under the oblivious arbiter too (and the analyzer still
  // flags it with the protocol checks disarmed).
  const Netlist mt = join_cycle_netlist().to_multithreaded(2, mt::MebKind::kFull);
  analysis::AnalysisOptions options;
  options.arbiter = mt::ArbiterKind::kOblivious;
  ASSERT_TRUE(has_code(analysis::analyze(mt, options), "MTE030"));

  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    const RunResult r = run_kernel(mt, kernel, mt::ArbiterKind::kOblivious);
    EXPECT_EQ(r.transfers, 0u) << "deadlocked MT netlist transferred tokens";
  }
}

/// MTE030 locus components of `report` — the node names the runtime
/// wait-for diagnosis must agree with.
std::vector<std::string> mte030_loci(const analysis::AnalysisReport& report) {
  std::vector<std::string> loci;
  for (const auto& d : report.diagnostics()) {
    if (d.code == "MTE030" && !d.component.empty()) loci.push_back(d.component);
  }
  return loci;
}

TEST(LintVsSim, FlaggedDeadlockTripsWatchdogWithLintLocus) {
  // The static verdict and the runtime diagnosis must agree: an
  // MTE030-flagged netlist trips the no-progress watchdog from reset, and
  // the wait-for-graph cycle names at least one MTE030 locus component.
  const Netlist net = join_cycle_netlist();
  const auto loci = mte030_loci(analysis::analyze(net));
  ASSERT_FALSE(loci.empty());

  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    const std::string diag =
        run_with_watchdog(net, kernel, mt::ArbiterKind::kRoundRobin, 60);
    ASSERT_FALSE(diag.empty()) << "MTE030 netlist did not trip the watchdog";
    EXPECT_NE(diag.find("wait-for cycle"), std::string::npos) << diag;
    bool named = false;
    for (const auto& locus : loci) {
      named = named || diag.find("'" + locus + "'") != std::string::npos;
    }
    EXPECT_TRUE(named) << "diagnosis names no MTE030 locus:\n" << diag;
  }
}

TEST(LintVsSim, FlaggedDeadlockTripsWatchdogMultithreaded) {
  const Netlist mt = join_cycle_netlist().to_multithreaded(2, mt::MebKind::kFull);
  analysis::AnalysisOptions options;
  options.arbiter = mt::ArbiterKind::kOblivious;
  const auto loci = mte030_loci(analysis::analyze(mt, options));
  ASSERT_FALSE(loci.empty());

  for (const auto kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    const std::string diag =
        run_with_watchdog(mt, kernel, mt::ArbiterKind::kOblivious, 60);
    ASSERT_FALSE(diag.empty()) << "MT MTE030 netlist did not trip the watchdog";
    bool named = false;
    for (const auto& locus : loci) {
      named = named || diag.find("'" + locus + "'") != std::string::npos;
    }
    EXPECT_TRUE(named) << "diagnosis names no MTE030 locus:\n" << diag;
  }
}

TEST(LintVsSim, CleanFuzzNetlistsDoNotTripTheWatchdog) {
  // The other direction of the cross-check: lint-clean netlists keep
  // making progress, so a generous deadline must never expire.
  const std::uint64_t base = base_seed();
  for (int k = 0; k < 6; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    SCOPED_TRACE("MTE_FUZZ_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    bool has_mt_join = false;
    const Netlist net = netlist::random_fuzz_netlist(rng, has_mt_join);
    const mt::ArbiterKind arbiter =
        has_mt_join ? mt::ArbiterKind::kOblivious : mt::ArbiterKind::kRoundRobin;
    analysis::AnalysisOptions options;
    options.arbiter = arbiter;
    ASSERT_FALSE(analysis::analyze(net, options).has_errors());
    const std::string diag =
        run_with_watchdog(net, sim::KernelKind::kEventDriven, arbiter, 300);
    EXPECT_TRUE(diag.empty()) << "clean netlist tripped the watchdog:\n" << diag;
  }
}

TEST(LintVsSim, CleanDiamondIsNotMisflagged) {
  // The negative control: a balanced ST diamond lints clean and flows.
  netlist::CircuitBuilder b;
  const auto f = b.source("src") >> b.fork("f", 2);
  const auto ba = f >> b.buffer("ba");
  const auto bb = f >> b.buffer("bb");
  const auto j = b.join("j", 2);
  ba >> j;
  bb >> j;
  j >> b.sink("snk");
  const Netlist n = b.build();
  ASSERT_EQ(analysis::analyze(n).count(), 0u);
  const RunResult r = run_kernel(n, sim::KernelKind::kEventDriven,
                                 mt::ArbiterKind::kRoundRobin);
  EXPECT_GT(r.transfers, 0u);
}

}  // namespace
