// Kernel-equivalence fuzzing: the seeded random-netlist generator
// (netlist/fuzz.hpp, shared with mte_lint's --fuzz-corpus mode and the
// lint-vs-simulation cross-check) feeds the lockstep harness across
// random structures (buffer chains, function units, variable-latency
// units, fork/join diamonds), random thread counts S, MEB variants and
// workload rates. Every failure message carries the reproducing seed;
// set MTE_FUZZ_SEED to replay a specific base seed (CI pins one for
// determinism).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "kernel_lockstep.hpp"
#include "netlist/fuzz.hpp"

namespace {

using namespace mte;
using kerneltest::run_lockstep;

/// Returns true when the lockstep run compared to completion (false =
/// skipped as divergent, which the generator's exclusions make rare).
bool run_fuzz_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  bool has_mt_join = false;
  const netlist::Netlist net = netlist::random_fuzz_netlist(rng, has_mt_join);

  // Workload parameters drawn once, applied identically to both kernels.
  struct Rates {
    std::vector<double> src, sink;
    std::uint64_t seed_base;
  } rates;
  rates.seed_base = rng();
  std::uniform_real_distribution<double> rate_dist(0.5, 1.0);
  for (int i = 0; i < 4; ++i) rates.src.push_back(rate_dist(rng));
  for (int i = 0; i < 8; ++i) rates.sink.push_back(rate_dist(rng));

  const auto configure = [&net, &rates](netlist::Elaboration& e) {
    std::size_t si = 0;
    std::size_t ki = 0;
    for (const auto& node : net.nodes()) {
      if (node.type == netlist::NodeType::kSource) {
        const double rate = rates.src[si++ % rates.src.size()];
        if (e.is_multithreaded()) {
          auto& src = e.mt_source(node.name);
          for (std::size_t t = 0; t < e.threads(); ++t) {
            src.set_generator(t, [t](std::uint64_t i) { return (t << 24) + i; });
            src.set_rate(t, rate, rates.seed_base + 31 * t);
          }
        } else {
          auto& src = e.source(node.name);
          src.set_generator([](std::uint64_t i) { return i; });
          src.set_rate(rate, rates.seed_base + 5);
        }
      } else if (node.type == netlist::NodeType::kSink) {
        const double rate = rates.sink[ki++ % rates.sink.size()];
        if (e.is_multithreaded()) {
          auto& sink = e.mt_sink(node.name);
          for (std::size_t t = 0; t < e.threads(); ++t) {
            sink.set_rate(t, rate, rates.seed_base + 17 * t + 7);
          }
        } else {
          e.sink(node.name).set_rate(rate, rates.seed_base + 11);
        }
      }
    }
  };

  // MTE_FUZZ_MONITORS=1 additionally attaches protocol monitors to both
  // elaborations: a violation on a lint-clean fuzz netlist is a hard
  // failure (the robustness CI job runs the corpus this way).
  const char* mon = std::getenv("MTE_FUZZ_MONITORS");
  // snapshot_interval bounds any divergence replay to a 200-cycle window:
  // a fuzz failure prints the offending (begin, end] window and, when
  // MTE_BISECT_DIR is set (CI), drops the snapshot pair as artifacts.
  return run_lockstep(net, configure,
                      {.cycles = 400,
                       .allow_divergent = true,
                       .arbiter = has_mt_join ? mt::ArbiterKind::kOblivious
                                              : mt::ArbiterKind::kRoundRobin,
                       .snapshot_interval = 200,
                       .monitors = mon != nullptr && std::string(mon) == "1"});
}

std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("MTE_FUZZ_SEED"); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEEu;  // fixed default: the suite is deterministic by default
}

TEST(KernelFuzz, RandomNetlistsLockstep) {
  const std::uint64_t base = fuzz_base_seed();
  const int cases = 64;
  int completed = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    SCOPED_TRACE("reproduce with MTE_FUZZ_SEED=" + std::to_string(seed) +
                 " (case " + std::to_string(k) + " of base " +
                 std::to_string(base) + ")");
    bool ok = false;
    try {
      ok = run_fuzz_case(seed);
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "exception: " << ex.what() << " — reproduce with"
                    << " MTE_FUZZ_SEED=" << seed;
    }
    if (ok) ++completed;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "kernel fuzz failed at seed %llu\n",
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
  std::fprintf(stderr, "kernel fuzz: %d/%d netlists fully compared (base seed %llu)\n",
               completed, cases, static_cast<unsigned long long>(base));
  // The acceptance bar: at least 50 fuzzed netlists fully compared.
  EXPECT_GE(completed, 50) << "too many cases skipped as divergent";
}

}  // namespace
