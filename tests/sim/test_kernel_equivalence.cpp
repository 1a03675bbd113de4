// Kernel equivalence: the event-driven worklist kernel must be
// cycle-for-cycle identical to the naive reference kernel — same wire
// values after every settle, same channel counters, same cycle counts —
// on the repository's representative circuits (fig1-style single-thread
// flows, fig5-style MEB pipelines, fork/join diamonds, branch/merge
// routing, variable-latency units), over thousands of cycles.
#include <gtest/gtest.h>

#include "kernel_lockstep.hpp"

namespace {

using namespace mte;
using kerneltest::LockstepOptions;
using kerneltest::run_lockstep;
using kerneltest::Word;

netlist::Netlist fig1_pipeline() {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >>
      b.buffer("b1") >> b.sink("out");
  return b.build();
}

TEST(KernelEquivalence, Fig1PipelineFullRate) {
  run_lockstep(fig1_pipeline(), [](netlist::Elaboration& e) {
    e.source("src").set_generator([](std::uint64_t i) { return i; });
  });
}

TEST(KernelEquivalence, Fig1PipelineBackpressured) {
  run_lockstep(
      fig1_pipeline(),
      [](netlist::Elaboration& e) {
        e.source("src").set_generator([](std::uint64_t i) { return i; });
        e.source("src").set_rate(0.8, 7);
        e.sink("out").set_rate(0.6, 11);
      },
      {.cycles = 3000});
}

TEST(KernelEquivalence, ForkJoinDiamond) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.fork("f", 2);
  b.node("f").out(0) >> b.buffer("ba") >> b.function("fa", "inc") >> b.join("j", 2).in(0);
  b.node("f").out(1) >> b.buffer("bb") >> b.buffer("bb2") >> b.node("j").in(1);
  b.node("j") >> b.buffer("bo") >> b.sink("out");
  run_lockstep(
      b.build(),
      [](netlist::Elaboration& e) {
        e.source("src").set_generator([](std::uint64_t i) { return i + 1; });
        e.sink("out").set_rate(0.7, 3);
      },
      {.cycles = 3000});
}

TEST(KernelEquivalence, BranchMergeRouting) {
  // Equal-latency arms and an always-ready sink keep the merge's inputs
  // mutually exclusive (branch serializes; equal delay preserves spacing).
  netlist::CircuitBuilder b;
  b.source("src") >> b.branch("br", "even");
  b.node("br").when_true() >> b.buffer("bt") >> b.merge("mg", 2).in(0);
  b.node("br").when_false() >> b.buffer("bf") >> b.node("mg").in(1);
  b.node("mg") >> b.sink("out");
  run_lockstep(
      b.build(),
      [](netlist::Elaboration& e) {
        e.source("src").set_generator([](std::uint64_t i) { return 3 * i + 1; });
      },
      {.cycles = 2500});
}

TEST(KernelEquivalence, VarLatencySingleThread) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.var_latency("vl", 1, 5) >> b.buffer("b1") >>
      b.sink("out");
  run_lockstep(
      b.build(),
      [](netlist::Elaboration& e) {
        e.source("src").set_generator([](std::uint64_t i) { return i; });
        e.sink("out").set_rate(0.85, 5);
      },
      {.cycles = 3000});
}

netlist::Netlist fig5_pipeline(std::size_t threads, mt::MebKind kind) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb0") >> b.buffer("meb1") >> b.sink("sink");
  b.then_multithreaded(threads, kind);
  return b.build();
}

/// The paper's Fig. 5 scenario: thread 1 stalls at the sink and is later
/// released while thread 0 keeps flowing.
void fig5_workload(netlist::Elaboration& e) {
  auto& src = e.mt_source("src");
  auto& sink = e.mt_sink("sink");
  for (std::size_t t = 0; t < e.threads(); ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return 1000 * t + i; });
  }
  sink.add_stall_window(1, 4, 26);
}

TEST(KernelEquivalence, Fig5FullMeb) {
  run_lockstep(fig5_pipeline(2, mt::MebKind::kFull), fig5_workload,
               {.cycles = 2000});
}

TEST(KernelEquivalence, Fig5ReducedMeb) {
  run_lockstep(fig5_pipeline(2, mt::MebKind::kReduced), fig5_workload,
               {.cycles = 2000});
}

netlist::Netlist meb_operator_pipeline(std::size_t threads, mt::MebKind kind) {
  netlist::CircuitBuilder b;
  auto stage = b.source("src") >> b.buffer("m0") >> b.function("fu0", "inc");
  for (int i = 1; i < 4; ++i) {
    stage = stage >> b.buffer("m" + std::to_string(i)) >>
            b.function("fu" + std::to_string(i), "double");
  }
  stage >> b.sink("sink");
  b.then_multithreaded(threads, kind);
  return b.build();
}

void contended_workload(netlist::Elaboration& e) {
  auto& src = e.mt_source("src");
  auto& sink = e.mt_sink("sink");
  for (std::size_t t = 0; t < e.threads(); ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
    src.set_rate(t, 0.9, 17 + t);
    sink.set_rate(t, 0.7, 29 + t);
  }
}

TEST(KernelEquivalence, MebOperatorPipelineS4Full) {
  run_lockstep(meb_operator_pipeline(4, mt::MebKind::kFull), contended_workload,
               {.cycles = 3000});
}

TEST(KernelEquivalence, MebOperatorPipelineS4Reduced) {
  run_lockstep(meb_operator_pipeline(4, mt::MebKind::kReduced), contended_workload,
               {.cycles = 3000});
}

TEST(KernelEquivalence, MebOperatorPipelineS8Full) {
  run_lockstep(meb_operator_pipeline(8, mt::MebKind::kFull), contended_workload,
               {.cycles = 2000});
}

TEST(KernelEquivalence, MtVarLatencyPipeline) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("m0") >> b.var_latency("vl", 1, 4) >> b.buffer("m1") >>
      b.sink("sink");
  b.then_multithreaded(4, mt::MebKind::kFull);
  run_lockstep(
      b.build(),
      [](netlist::Elaboration& e) {
        auto& src = e.mt_source("src");
        for (std::size_t t = 0; t < e.threads(); ++t) {
          src.set_generator(t, [t](std::uint64_t i) { return 7 * t + i; });
        }
        e.mt_sink("sink").set_rate(2, 0.5, 41);
      },
      {.cycles = 3000});
}

TEST(KernelEquivalence, SingleThreadMtDesignPoint) {
  // The S=1 multithreaded design point (MEBs with one thread).
  run_lockstep(fig5_pipeline(1, mt::MebKind::kReduced),
               [](netlist::Elaboration& e) {
                 e.mt_source("src").set_generator(0, [](std::uint64_t i) { return i; });
                 e.mt_sink("sink").set_rate(0, 0.75, 13);
               },
               {.cycles = 2500});
}

}  // namespace
