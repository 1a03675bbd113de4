// Example: the netlist-level synthesis flow — describe a single-thread
// elastic dataflow graph with the fluent builder, check it, transform
// it to a multithreaded elastic system (the paper's central idea),
// estimate its FPGA cost for both MEB flavours, export DOT, and simulate
// both versions through the same description.
#include <cstdio>

#include "area/cost_model.hpp"
#include "netlist/builder.hpp"

int main() {
  using namespace mte;

  // An iterative dataflow loop: tokens are incremented until even.
  //   src -> merge -> inc -> buffer -> branch(even) -> sink
  //             ^__________________________| (odd loops back)
  netlist::CircuitBuilder b;
  auto entry = b.merge("entry", 2);
  b.source("src") >> entry;
  auto exit_test =
      entry >> b.function("inc", "inc") >> b.buffer("loop_buf") >> b.branch("exit_test", "even");
  exit_test.when_false() >> entry.in(1);  // odd: loop back
  exit_test.when_true() >> b.sink("snk"); // even: exit

  const netlist::Netlist n = b.build();  // build() refuses analyzer errors
  std::printf("validation: clean (%zu nodes, %zu edges)\n", n.nodes().size(),
              n.edges().size());

  // The synthesis step: single-thread -> 4-thread elastic system.
  const auto multi = b.then_multithreaded(4, mt::MebKind::kReduced).build();
  std::printf("\nDOT of the multithreaded netlist:\n%s\n", multi.to_dot().c_str());

  // Cost both MEB flavours for the transformed design (64-bit tokens).
  area::CostModel model;
  double les[2];
  for (mt::MebKind kind : {mt::MebKind::kFull, mt::MebKind::kReduced}) {
    area::DesignEstimate est;
    est.name = "loop";
    est.items.push_back(model.meb("loop_buf", 64, 4, kind));
    est.items.push_back(model.m_operator("merge+branch", 4, 6.0));
    est.items.push_back(model.comb("inc", 64, 0, 2));
    les[kind == mt::MebKind::kFull ? 0 : 1] = est.total_les();
    std::printf("area with %-7s MEB: %6.0f LEs\n", mt::to_string(kind),
                est.total_les());
  }
  std::printf("reduced-MEB saving: %.1f%%\n\n", 100.0 * (les[0] - les[1]) / les[0]);

  // Simulate the single-thread version: same description, base primitives.
  {
    netlist::Elaboration single(n, netlist::FunctionRegistry::with_defaults());
    single.source("src").set_tokens({1, 2, 3, 4, 5});
    single.simulator().reset();
    single.simulator().run(100);
    std::printf("single-thread results: ");
    for (auto v : single.sink("snk").received()) {
      std::printf("%llu ", (unsigned long long)v);
    }
    std::printf("\n");
  }

  // And the 4-thread version straight from the builder.
  auto mt_design = b.elaborate();
  for (std::size_t t = 0; t < 4; ++t) {
    mt_design.mt_source("src").set_tokens(t, {10 * t + 1, 10 * t + 2});
  }
  mt_design.simulator().reset();
  mt_design.simulator().run(200);
  std::printf("4-thread results:\n");
  for (std::size_t t = 0; t < 4; ++t) {
    std::printf("  thread %zu: ", t);
    for (auto v : mt_design.mt_sink("snk").received(t)) {
      std::printf("%llu ", (unsigned long long)v);
    }
    std::printf("\n");
  }
  std::printf("\nloop-entry channel utilization: %.2f tokens/cycle\n",
              mt_design.probe("entry").throughput());
  return 0;
}
